"""Fault-sensitivity ablation: stragglers vs the 2D TP algorithms.

The paper's evaluation assumes a perfectly uniform cluster; production
pods do not cooperate (stragglers, degraded links, transient outages).
This ablation injects seeded compute stragglers of growing severity and
count into a tuned transformer block and compares how gracefully each
algorithm family degrades: MeshSlice's sliced overlapping vs SUMMA's
broadcast loop vs the non-overlapped collective 2D TP vs 1D TP.

Each algorithm keeps the mesh shape and slice counts it tuned for the
*clean* cluster — the deployment situation where faults strike a
configuration chosen without knowing about them — and the makespan
inflation over its own clean baseline is reported together with the
shift of the communication share (total launch+transfer+sync over the
block, via :mod:`repro.sim.trace`), showing where the lost time goes.
All draws derive from the row's :class:`repro.faults.FaultSpec` seed,
so the table is reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    best_block_run,
    render_table,
    weak_scaling_batch,
)
from repro.faults import FaultSpec
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models import GPT3_175B
from repro.models.config import LLMConfig
from repro.perf.pipeline import faulted_pass
from repro.sim.trace import ZERO_BREAKDOWN

#: Algorithm families compared (Section 5's main contenders).
ALGORITHMS = ("meshslice", "summa", "collective", "1dtp")

#: Straggler severity sweep: per-chip compute slowdown upper bounds.
SEVERITIES = (1.25, 1.5, 2.0)

#: Straggler count sweep (chips drawn per fault plan).
COUNTS = (1, 4)

DEFAULT_CHIPS = 16
DEFAULT_ENSEMBLE = 3
DEFAULT_SEED = 2025


@dataclasses.dataclass(frozen=True)
class FaultRow:
    """One (algorithm, severity, straggler-count) grid point."""

    algorithm: str
    severity: float
    stragglers: int
    mesh: Tuple[int, int]
    clean_ms: float
    faulted_ms: float
    comm_share_clean: float
    comm_share_faulted: float

    @property
    def inflation(self) -> float:
        """Ensemble-mean faulted over clean block time (>= 1)."""
        if self.clean_ms <= 0:
            return 1.0
        return self.faulted_ms / self.clean_ms


def _comm_share(results: Sequence) -> float:
    """Block-level communication share: comm time over block time."""
    breakdown = ZERO_BREAKDOWN
    seconds = 0.0
    for result in results:
        breakdown = breakdown + result.comm
        seconds += result.makespan
    if seconds <= 0:
        return 0.0
    return breakdown.total / seconds


def point(coords) -> List[FaultRow]:
    """One grid point's row (none if the algorithm cannot run it)."""
    (algorithm, severity, stragglers, model, batch, chips, hw,
     ensemble, seed) = coords
    clean = best_block_run(algorithm, model, batch, chips, hw)
    if clean is None:
        return []
    spec = FaultSpec(
        stragglers=stragglers,
        straggler_slowdown=severity,
        seed=seed,
    )
    faulted_seconds = 0.0
    faulted_share = 0.0
    plans = spec.ensemble(chips, hw, ensemble)
    for plan in plans:
        results = [
            faulted_pass(algorithm, cfg, hw, plan) for cfg in clean.configs
        ]
        faulted_seconds += sum(r.makespan for r in results)
        faulted_share += _comm_share(results)
    return [FaultRow(
        algorithm=algorithm,
        severity=severity,
        stragglers=stragglers,
        mesh=clean.mesh.shape,
        clean_ms=clean.seconds * 1e3,
        faulted_ms=faulted_seconds / len(plans) * 1e3,
        comm_share_clean=_comm_share(clean.results),
        comm_share_faulted=faulted_share / len(plans),
    )]


def points(
    model: LLMConfig = GPT3_175B,
    chips: int = DEFAULT_CHIPS,
    hw: HardwareParams = TPUV4,
    algorithms: Sequence[str] = ALGORITHMS,
    severities: Sequence[float] = SEVERITIES,
    counts: Sequence[int] = COUNTS,
    ensemble: int = DEFAULT_ENSEMBLE,
    seed: int = DEFAULT_SEED,
) -> List[tuple]:
    """Straggler severity x count for every algorithm family.

    Each row averages the faulted block time over a seeded ensemble of
    ``ensemble`` fault plans; every grid point reuses the same base
    ``seed``, so the same stragglers hit every algorithm.
    """
    batch = weak_scaling_batch(chips)
    return [
        (algorithm, severity, stragglers, model, batch, chips, hw,
         ensemble, seed)
        for algorithm in algorithms
        for severity in severities
        for stragglers in counts
    ]


def render(rows: Sequence[FaultRow]) -> str:
    table = render_table(
        ["algorithm", "mesh", "slowdown", "stragglers", "clean (ms)",
         "faulted (ms)", "inflation", "comm share", "comm share (faulted)"],
        [(r.algorithm, f"{r.mesh[0]}x{r.mesh[1]}", r.severity, r.stragglers,
          r.clean_ms, r.faulted_ms, f"{r.inflation:.3f}x",
          f"{r.comm_share_clean * 100:.1f}%",
          f"{r.comm_share_faulted * 100:.1f}%")
         for r in rows],
    )
    lines = [table, ""]
    worst = {}
    for row in rows:
        worst[row.algorithm] = max(
            worst.get(row.algorithm, 1.0), row.inflation
        )
    ranked = sorted(worst.items(), key=lambda kv: kv[1])
    summary = ", ".join(f"{name} {infl:.2f}x" for name, infl in ranked)
    lines.append(f"worst-case inflation by algorithm: {summary}")
    lines.append(
        "(a straggler slows every lockstep GeMM, so the most "
        "compute-efficient algorithm has the least comm slack to hide it "
        "in and inflates most — efficiency buys fault sensitivity; the "
        "falling comm share shows the lost time is compute, not network)"
    )
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="ablation-faults",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
