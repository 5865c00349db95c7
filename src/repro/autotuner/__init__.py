"""The MeshSlice LLM autotuner (Section 3.2)."""

from repro.autotuner.costmodel import (
    CostEstimate,
    best_slice_count,
    best_sliced_slice_count,
    collective_estimate,
    meshslice_estimate,
    sliced_estimate,
    valid_slice_counts_for,
)
from repro.autotuner.dataflow import (
    PASSES,
    STATIONARY_CHOICES,
    LayerPlan,
    PassPlan,
    choose_stationary,
    pass_plans,
    plan_layer,
    plan_model,
)
from repro.autotuner.search import (
    RobustTuningResult,
    TunedPass,
    TuningResult,
    robust_tune_model,
    tune_mesh,
    tune_model,
)

__all__ = [
    "CostEstimate",
    "LayerPlan",
    "PASSES",
    "PassPlan",
    "RobustTuningResult",
    "STATIONARY_CHOICES",
    "TunedPass",
    "TuningResult",
    "best_slice_count",
    "best_sliced_slice_count",
    "choose_stationary",
    "collective_estimate",
    "meshslice_estimate",
    "pass_plans",
    "plan_layer",
    "plan_model",
    "robust_tune_model",
    "sliced_estimate",
    "tune_mesh",
    "tune_model",
    "valid_slice_counts_for",
]
