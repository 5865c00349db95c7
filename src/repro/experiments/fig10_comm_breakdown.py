"""Figure 10: communication-time breakdown in 256-chip clusters.

For each algorithm, the total (overlapped plus non-overlapped)
communication time of the FC layers is broken into launch, transfer,
and synchronization components and reported *relative to the
algorithm's own GeMM computation time* — the paper's normalization,
under which a total below 1.0 means all communication could in theory
be hidden. The expected shape: Cannon pays extra transfer (skew +
square mesh), SUMMA drowns in synchronization, the 1D methods pay
large transfer costs, Collective is the leanest but cannot overlap,
and Wang/MeshSlice sit slightly above Collective (extra launches and
syncs respectively) while hiding almost all of it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    ALL_ALGORITHMS,
    best_block_run,
    render_table,
    weak_scaling_batch,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B
from repro.sim.trace import ZERO_BREAKDOWN


@dataclasses.dataclass(frozen=True)
class BreakdownRow:
    """Relative communication components of one algorithm."""

    model: str
    algorithm: str
    launch: Optional[float]
    transfer: Optional[float]
    sync: Optional[float]

    @property
    def total(self) -> Optional[float]:
        if self.launch is None:
            return None
        return self.launch + self.transfer + self.sync


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    chips: int = 256,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """One Figure 10 grid point per model."""
    return [(model, chips, tuple(algorithms), hw) for model in models]


def point(coords) -> List[BreakdownRow]:
    """All Figure 10 bars of one (model, chips) grid point."""
    model, chips, algorithms, hw = coords
    batch = weak_scaling_batch(chips)
    rows: List[BreakdownRow] = []
    for algorithm in algorithms:
        block = best_block_run(algorithm, model, batch, chips, hw)
        if block is None:
            rows.append(BreakdownRow(model.name, algorithm, None, None, None))
            continue
        comm = sum(
            (r.trace.breakdown() for r in block.results),
            start=ZERO_BREAKDOWN,
        )
        compute = sum(r.compute_seconds for r in block.results)
        rel = comm.relative_to(compute)
        rows.append(
            BreakdownRow(
                model=model.name,
                algorithm=algorithm,
                launch=rel.launch,
                transfer=rel.transfer,
                sync=rel.sync,
            )
        )
    return rows


def render(rows: Sequence[BreakdownRow]) -> str:
    return render_table(
        ["model", "algorithm", "launch", "transfer", "sync", "total (rel. to compute)"],
        [(r.model, r.algorithm, r.launch, r.transfer, r.sync, r.total) for r in rows],
    )


CAMPAIGN = CampaignSpec(
    name="fig10",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
