"""LLM model zoo and training workload descriptions."""

from repro._lazy import lazy_exports
from repro.models.config import LLMConfig
from repro.models.layers import (
    PASSES,
    FCLayer,
    block_fc_flops,
    distinct_gemm_shapes,
    fc_layers,
)
from repro.models.inference import (
    InferenceWorkload,
    inference_gemms,
    is_memory_bound,
)
from repro.models.memory import MemoryEstimate, max_feasible_batch, training_memory
from repro.models.moe import MoEConfig, expert_ffn_gemms
from repro.models.nonfc import nonfc_block_seconds, nonfc_model_seconds
from repro.models.zoo import (
    GPT3_175B,
    LLAMA2_70B,
    MEGATRON_NLG_530B,
    PALM_540B,
    get_model,
    model_names,
)

#: numpy-backed convolution lowering, imported on first access (PEP 562).
_LAZY_EXPORTS = {
    "ConvLayer": "repro.models.conv",
    "conv2d_via_gemm": "repro.models.conv",
    "im2col": "repro.models.conv",
}

__all__ = [
    "ConvLayer",
    "FCLayer",
    "InferenceWorkload",
    "MemoryEstimate",
    "MoEConfig",
    "GPT3_175B",
    "LLAMA2_70B",
    "LLMConfig",
    "MEGATRON_NLG_530B",
    "PALM_540B",
    "PASSES",
    "block_fc_flops",
    "distinct_gemm_shapes",
    "fc_layers",
    "get_model",
    "model_names",
    "conv2d_via_gemm",
    "expert_ffn_gemms",
    "im2col",
    "inference_gemms",
    "is_memory_bound",
    "max_feasible_batch",
    "nonfc_block_seconds",
    "nonfc_model_seconds",
    "training_memory",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
