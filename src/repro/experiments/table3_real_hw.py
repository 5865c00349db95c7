"""Table 3: MeshSlice on a real 4x4 TPUv4 cloud slice.

Current TPUv4 clusters cannot overlap AG/RdS collectives with
computation (only SendRecv is asynchronous) and only expose
unidirectional link bandwidth. The ``TPUV4_CLOUD_4X4`` preset models
this environment. The experiment shows (1) MeshSlice's *intrinsic*
overhead — slicing copies plus less efficient fine-grain partial
GeMMs/collectives — is small relative to Collective when its overlap
advantage is taken away, (2) Wang barely gains because compiler-created
dependencies defeat most of its SendRecv overlap, and (3) the
"MeshSlice Overlap" column estimates what the same configuration would
deliver if collectives could overlap.

Slice counts are tuned for the overlap-capable machine (the algorithm
configuration a deployment would ship) and then run on the restricted
one, mirroring the paper's methodology.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.autotuner.dataflow import plan_model
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import render_table, run_block
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4_CLOUD_4X4, TPUV4_CLOUD_4X4_OVERLAP
from repro.mesh.topology import Mesh2D
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B

#: The paper's Table 3 values for comparison.
PAPER_RESULTS = {
    "gpt3-175b": {
        "collective": 0.474, "wang": 0.477, "meshslice": 0.455,
        "meshslice_overlap": 0.657,
    },
    "megatron-nlg-530b": {
        "collective": 0.494, "wang": 0.464, "meshslice": 0.471,
        "meshslice_overlap": 0.656,
    },
}


@dataclasses.dataclass(frozen=True)
class RealHWRow:
    model: str
    collective: float
    wang: float
    meshslice: float
    meshslice_overlap: float

    @property
    def meshslice_overhead(self) -> float:
        """Relative execution-time overhead of MeshSlice vs Collective."""
        return self.collective / self.meshslice - 1.0


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    batch_size: int = 8,
    hw: HardwareParams = TPUV4_CLOUD_4X4,
    overlap_hw: HardwareParams = TPUV4_CLOUD_4X4_OVERLAP,
) -> List[tuple]:
    """One Table 3 grid point per model, on the fixed 4x4 cloud mesh."""
    return [(model, batch_size, hw, overlap_hw) for model in models]


def point(coords) -> RealHWRow:
    """One Table 3 row: one model across all four columns."""
    model, batch_size, hw, overlap_hw = coords
    mesh = Mesh2D(4, 4)
    tokens = model.tokens(batch_size)
    plans = plan_model(model, tokens, optimize_dataflow=True)
    utils: Dict[str, float] = {}
    for algorithm in ("collective", "wang", "meshslice"):
        block = run_block(
            algorithm, plans, mesh, hw, tuning_hw=overlap_hw
        )
        utils[algorithm] = block.utilization(hw)
    overlap = run_block(
        "meshslice", plans, mesh, overlap_hw, tuning_hw=overlap_hw
    )
    return RealHWRow(
        model=model.name,
        collective=utils["collective"],
        wang=utils["wang"],
        meshslice=utils["meshslice"],
        meshslice_overlap=overlap.utilization(overlap_hw),
    )


def render(rows: Sequence[RealHWRow]) -> str:
    body = []
    for r in rows:
        paper = PAPER_RESULTS.get(r.model, {})
        body.append(
            (
                r.model, r.collective, r.wang, r.meshslice, r.meshslice_overlap,
                f"{r.meshslice_overhead * 100:+.1f}%",
                f"paper ms: {paper.get('meshslice', 0):.3f}",
            )
        )
    return render_table(
        [
            "model", "collective", "wang", "meshslice",
            "meshslice+overlap (est.)", "ms overhead vs coll.", "reference",
        ],
        body,
    )


CAMPAIGN = CampaignSpec(
    name="table3",
    points=points,
    point=point,
    render=render,
)
