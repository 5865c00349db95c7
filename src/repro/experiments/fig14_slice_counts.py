"""Figure 14: cost-model vs simulation across slice counts (32x8 mesh).

Sweeps the MeshSlice slice count ``S`` uniformly over the FC layers of
a 32x8-mesh cluster and compares the analytical estimate against the
simulation. The trade-off the paper describes should appear as an
interior optimum: small ``S`` leaves a large non-overlapped prologue
and epilogue; large ``S`` piles up synchronization and kernel-launch
overhead. What matters is that the cost model's optimum matches the
simulator's.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.algorithms import GeMMConfig, get_algorithm
from repro.autotuner.costmodel import meshslice_estimate
from repro.autotuner.dataflow import plan_model
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import render_table, weak_scaling_batch
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import Mesh2D
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B
from repro.sim.cluster import simulate

#: Uniform slice counts swept by the figure.
SLICE_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@dataclasses.dataclass(frozen=True)
class SliceCountRow:
    model: str
    slices: int
    estimated_utilization: Optional[float]
    simulated_utilization: Optional[float]


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    chips: int = 256,
    mesh: Mesh2D = Mesh2D(32, 8),
    slice_counts: Sequence[int] = SLICE_COUNTS,
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """One Figure 14 grid point per (model, slice count)."""
    return [
        (model, chips, mesh, slices, hw)
        for model in models
        for slices in slice_counts
    ]


def point(coords) -> SliceCountRow:
    """One Figure 14 (model, slice count) data point.

    ``plan_model`` is memoized, so points sharing a process derive the
    plans once.
    """
    model, chips, mesh, slices, hw = coords
    alg = get_algorithm("meshslice")
    tokens = model.tokens(weak_scaling_batch(chips))
    plans = plan_model(model, tokens, optimize_dataflow=True)
    est_seconds = sim_seconds = 0.0
    flops_per_chip = 0.0
    for plan in plans:
        for pass_plan in plan.passes:
            cfg = GeMMConfig(
                shape=pass_plan.shape,
                mesh=mesh,
                dataflow=pass_plan.dataflow,
                slices=slices,
                transposed=pass_plan.transposed,
            )
            if not alg.supports(cfg):
                return SliceCountRow(model.name, slices, None, None)
            est_seconds += meshslice_estimate(cfg, hw).total
            result = simulate(alg.build_program(cfg, hw), hw)
            sim_seconds += result.makespan
            flops_per_chip += result.flops_per_chip
    return SliceCountRow(
        model=model.name,
        slices=slices,
        estimated_utilization=flops_per_chip
        / (est_seconds * hw.peak_flops),
        simulated_utilization=flops_per_chip
        / (sim_seconds * hw.peak_flops),
    )


def optimal_slices(rows: Sequence[SliceCountRow], model: str) -> Tuple[int, int]:
    """(estimated-optimal, simulated-optimal) slice counts for a model."""
    model_rows = [
        r for r in rows if r.model == model and r.estimated_utilization is not None
    ]
    if not model_rows:
        raise ValueError(f"no feasible rows for model {model!r}")
    est = max(model_rows, key=lambda r: r.estimated_utilization).slices
    sim = max(model_rows, key=lambda r: r.simulated_utilization).slices
    return est, sim


def render(rows: Sequence[SliceCountRow]) -> str:
    table = render_table(
        ["model", "S", "estimated util", "simulated util"],
        [
            (r.model, r.slices, r.estimated_utilization, r.simulated_utilization)
            for r in rows
        ],
    )
    lines = [table, ""]
    for model in sorted({r.model for r in rows}):
        est, sim = optimal_slices(rows, model)
        agree = "agree" if est == sim else "DISAGREE"
        lines.append(
            f"{model}: cost model optimum S={est}, simulated optimum S={sim} "
            f"({agree})"
        )
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="fig14",
    points=points,
    point=point,
    render=render,
)
