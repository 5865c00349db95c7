"""Figure 12: strong-scaling FLOP utilization (batch fixed at 32).

With the batch frozen at the 64-chip weak-scaling value, per-chip
compute shrinks as the cluster grows while communication does not, so
the 256-chip points become communication-bound: MeshSlice's overlap
gain diminishes and it converges toward Collective/Wang, while staying
ahead of SUMMA and 1D TP. FSDP cannot strong-scale at all (data
parallelism needs the batch to grow with the chip count), matching the
paper's omission.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.autotuner.dataflow import plan_model
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    CLUSTER_SIZES,
    best_block_run,
    render_table,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B

#: Strong scaling excludes FSDP (Section 5.1.3).
STRONG_SCALING_ALGORITHMS = (
    "cannon", "summa", "collective", "wang", "meshslice", "1dtp",
)


@dataclasses.dataclass(frozen=True)
class StrongScalingRow:
    model: str
    chips: int
    algorithm: str
    mesh: Optional[str]
    utilization: Optional[float]


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    sizes: Sequence[int] = CLUSTER_SIZES,
    batch_size: int = 32,
    algorithms: Sequence[str] = STRONG_SCALING_ALGORITHMS,
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """The independent (model, chips) grid points of Figure 12."""
    return [
        (model, chips, batch_size, tuple(algorithms), hw)
        for model in models
        for chips in sizes
    ]


def point(coords) -> List[StrongScalingRow]:
    """All Figure 12 rows of one (model, chips) grid point.

    The Phase-1 plans are shared by every algorithm's mesh search.
    """
    model, chips, batch_size, algorithms, hw = coords
    plans = plan_model(model, model.tokens(batch_size), optimize_dataflow=True)
    rows: List[StrongScalingRow] = []
    for algorithm in algorithms:
        block = best_block_run(
            algorithm, model, batch_size, chips, hw, plans=plans
        )
        if block is None:
            rows.append(
                StrongScalingRow(model.name, chips, algorithm, None, None)
            )
        else:
            rows.append(
                StrongScalingRow(
                    model.name, chips, algorithm,
                    str(block.mesh), block.utilization(hw),
                )
            )
    return rows


def render(rows: Sequence[StrongScalingRow]) -> str:
    return render_table(
        ["model", "chips", "algorithm", "mesh", "FLOP util"],
        [(r.model, r.chips, r.algorithm, r.mesh, r.utilization) for r in rows],
    )


CAMPAIGN = CampaignSpec(
    name="fig12",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
