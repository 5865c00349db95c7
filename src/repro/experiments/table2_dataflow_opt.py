"""Table 2: effect of the autotuner's dataflow optimization.

Compares MeshSlice FC-layer training in a 256-chip cluster with the
default dataflow (Y-stationary for every layer, the transpose-free
baseline) against the autotuner's Phase-1 choice (largest matrix
stationary). For GPT-3 the optimization rescues the FFN output layer —
whose input is 4x larger than its output, so the Y-stationary default
moves the largest matrix — yielding the paper's 21.2% speedup; for the
more compute-heavy Megatron-NLG the gain is smaller (5.1%).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    best_block_run,
    render_table,
    weak_scaling_batch,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B

#: The paper's Table 2 values for comparison.
PAPER_RESULTS = {
    "gpt3-175b": {"not_optimized": 0.556, "optimized": 0.674, "speedup": 0.212},
    "megatron-nlg-530b": {"not_optimized": 0.782, "optimized": 0.822, "speedup": 0.051},
}


@dataclasses.dataclass(frozen=True)
class DataflowRow:
    model: str
    not_optimized: float
    optimized: float

    @property
    def speedup(self) -> float:
        return self.not_optimized and (self.optimized / self.not_optimized - 1.0)


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    chips: int = 256,
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """One Table 2 grid point per model."""
    return [(model, chips, hw) for model in models]


def point(coords) -> DataflowRow:
    """One Table 2 row: one model, both dataflow settings."""
    model, chips, hw = coords
    batch = weak_scaling_batch(chips)
    default = best_block_run(
        "meshslice", model, batch, chips, hw, optimize_dataflow=False
    )
    optimized = best_block_run(
        "meshslice", model, batch, chips, hw, optimize_dataflow=True
    )
    return DataflowRow(
        model=model.name,
        not_optimized=default.utilization(hw),
        optimized=optimized.utilization(hw),
    )


def render(rows: Sequence[DataflowRow]) -> str:
    body = []
    for r in rows:
        paper = PAPER_RESULTS.get(r.model, {})
        body.append(
            (
                r.model,
                r.not_optimized,
                r.optimized,
                f"{r.speedup * 100:+.1f}%",
                f"paper: {paper.get('speedup', 0) * 100:+.1f}%",
            )
        )
    return render_table(
        ["model", "not optimized", "optimized", "speedup", "reference"], body
    )


CAMPAIGN = CampaignSpec(
    name="table2",
    points=points,
    point=point,
    render=render,
)
