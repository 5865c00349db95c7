"""Algorithm-zoo ablation: the full registry compared on plain GeMMs.

Post-paper experiment (ROADMAP item 3): every registered algorithm —
the paper's five 2D baselines, the 1D baselines, and the two zoo
additions (one-sided sliced, space-filling-curve) — executes the same
output-stationary GeMMs, each at its best candidate mesh. Three grid
points stress the zoo's coverage claims:

* a square and a wide GeMM on 16 chips, where every family runs and
  the interesting signal is one-sided vs ring-collective sync cost;
* a GeMM on a prime chip count (7), where no 2D mesh exists — only
  the curve-based and 1D algorithms produce a result, which is the
  space-filling-curve family's reason to exist.

The rendered table footers the Hilbert/Morton/row-major curve lengths
on an 8x8 grid, tying the :mod:`repro.mesh.topology` layouts the SFC
algorithm rides on into the reported output.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.algorithms import GeMMConfig, algorithm_names, get_algorithm
from repro.campaign.spec import CampaignSpec
from repro.core.dataflow import Dataflow
from repro.core.gemm import GeMMShape
from repro.experiments.common import (
    candidate_meshes,
    render_table,
    tuned_slices,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import curve_length, hilbert_order, morton_order
from repro.sim.cluster import simulate

#: The compared GeMM grid: (label, (M, N, K), chips).
ZOO_POINTS: Tuple[Tuple[str, Tuple[int, int, int], int], ...] = (
    ("square", (4096, 4096, 4096), 16),
    ("wide", (2048, 8192, 4096), 16),
    ("prime", (3584, 3584, 3584), 7),
)


@dataclasses.dataclass(frozen=True)
class ZooRow:
    """Best-mesh utilization of one algorithm on one GeMM point."""

    label: str
    shape: Tuple[int, int, int]
    chips: int
    algorithm: str
    utilization: Optional[float]
    mesh: Optional[str]


def _fixed_slices(algorithm: str) -> Optional[int]:
    """Algorithms whose granularity is not the autotuned slice count."""
    if algorithm in ("collective", "cannon", "sfc"):
        return 1
    return None


def _best_for_point(
    algorithm: str,
    shape: Tuple[int, int, int],
    chips: int,
    hw: HardwareParams,
) -> Optional[Tuple[float, str]]:
    alg = get_algorithm(algorithm)
    best = None
    for mesh in candidate_meshes(algorithm, chips):
        base = GeMMConfig(
            shape=GeMMShape(*shape),
            mesh=mesh,
            dataflow=Dataflow.OS,
            slices=1,
        )
        slices = _fixed_slices(algorithm)
        if slices is None:
            slices = tuned_slices(base, hw)
        cfg = dataclasses.replace(base, slices=slices)
        if not alg.supports(cfg):
            continue
        result = simulate(alg.build_program(cfg, hw), hw)
        util = result.flop_utilization()
        if best is None or util > best[0]:
            best = (util, str(mesh))
    return best


def points(
    points: Sequence[Tuple[str, Tuple[int, int, int], int]] = ZOO_POINTS,
    algorithms: Optional[Sequence[str]] = None,
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """One grid point per (GeMM, chips); every algorithm by default."""
    names = tuple(algorithms) if algorithms is not None else algorithm_names()
    return [(label, shape, chips, names, hw) for label, shape, chips in points]


def point(coords) -> List[ZooRow]:
    """All rows of one (GeMM, chips) grid point."""
    label, shape, chips, algorithms, hw = coords
    rows: List[ZooRow] = []
    for algorithm in algorithms:
        best = _best_for_point(algorithm, shape, chips, hw)
        if best is None:
            rows.append(ZooRow(label, shape, chips, algorithm, None, None))
        else:
            rows.append(ZooRow(label, shape, chips, algorithm, *best))
    return rows


def render(rows: Sequence[ZooRow]) -> str:
    table = render_table(
        ["gemm", "(M,N,K)", "chips", "algorithm", "FLOP util", "mesh"],
        [(r.label, str(r.shape), r.chips, r.algorithm, r.utilization, r.mesh)
         for r in rows],
    )
    lines = [table, ""]
    prime = [r for r in rows if r.chips == 7 and r.utilization is not None]
    if prime:
        names = ", ".join(sorted({r.algorithm for r in prime}))
        lines.append(f"prime chip count served by: {names}")
    lines.append(
        "8x8 rank-layout curve lengths: "
        + ", ".join(
            f"{name}={length}"
            for name, length in (
                ("hilbert", curve_length(hilbert_order(8, 8))),
                ("morton", curve_length(morton_order(8, 8))),
                ("row-major", 8 * 7 + 7 * 8),
            )
        )
    )
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="ablation-zoo",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
