"""Figure 4: execution timelines of the five 2D GeMM algorithms.

The paper's Figure 4 is a schematic; this experiment renders the real
simulated timelines of Cannon, SUMMA, Collective, Wang, and MeshSlice
for one representative training GeMM, showing the same structure:
Cannon's skew prologue and higher traffic, SUMMA's long sync-laden
broadcasts, Collective's fully exposed collectives, Wang overlapping
one direction, and MeshSlice overlapping both.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.algorithms import GeMMConfig, get_algorithm
from repro.campaign.spec import CampaignSpec
from repro.core.dataflow import Dataflow
from repro.core.gemm import GeMMShape
from repro.experiments.common import tuned_slices
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import Mesh2D
from repro.sim.cluster import SimResult, simulate
from repro.sim.trace import ascii_timeline

#: A mid-size training GeMM on a 16x16 mesh (all five algorithms can
#: run it, including square-only Cannon).
DEFAULT_SHAPE = GeMMShape(m=131072, n=49152, k=12288)
DEFAULT_MESH = Mesh2D(16, 16)

ALGORITHMS = ("cannon", "summa", "collective", "wang", "meshslice")


@dataclasses.dataclass
class TimelineRow:
    algorithm: str
    makespan_ms: float
    utilization: float
    result: SimResult


def simulate_timeline(
    algorithm: str,
    shape: GeMMShape = DEFAULT_SHAPE,
    mesh: Mesh2D = DEFAULT_MESH,
    hw: HardwareParams = TPUV4,
) -> Optional[TimelineRow]:
    """Simulate the GeMM with one algorithm (``None`` if it cannot run
    it)."""
    alg = get_algorithm(algorithm)
    base = GeMMConfig(shape, mesh, Dataflow.OS, slices=1)
    slices = 1
    if algorithm not in ("collective", "cannon"):
        slices = tuned_slices(base, hw)
    cfg = dataclasses.replace(base, slices=slices)
    if not alg.supports(cfg):
        return None
    result = simulate(alg.build_program(cfg, hw), hw)
    return TimelineRow(
        algorithm=algorithm,
        makespan_ms=result.makespan * 1e3,
        utilization=result.flop_utilization(),
        result=result,
    )


def ordering(rows: Sequence) -> List[str]:
    """Algorithms fastest-first."""
    return [r.algorithm for r in sorted(rows, key=lambda r: r.makespan_ms)]


@dataclasses.dataclass(frozen=True)
class CampaignTimelineRow:
    """The storable form of one timeline: text, not a ``SimResult``."""

    algorithm: str
    makespan_ms: float
    utilization: float
    timeline: str


def points(algorithms: Sequence[str] = ALGORITHMS) -> List[str]:
    """One grid point per algorithm."""
    return list(algorithms)


def point(algorithm: str) -> List[CampaignTimelineRow]:
    """One algorithm's timeline (empty if it cannot run the GeMM)."""
    row = simulate_timeline(algorithm)
    if row is None:
        return []
    return [
        CampaignTimelineRow(
            algorithm=row.algorithm,
            makespan_ms=row.makespan_ms,
            utilization=row.utilization,
            timeline=ascii_timeline(row.result.spans, width=76),
        )
    ]


def render(rows: Sequence[CampaignTimelineRow]) -> str:
    lines = []
    for row in rows:
        lines.append(
            f"--- {row.algorithm}: {row.makespan_ms:.2f} ms, "
            f"{row.utilization:.1%} FLOP util "
            f"(compute '#', comm '=', slicing '.')"
        )
        lines.append(row.timeline)
        lines.append("")
    lines.append(f"fastest to slowest: {' > '.join(ordering(rows))}")
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="fig4",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
