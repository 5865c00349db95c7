"""Silent-data-corruption ablation: ABFT protection vs escape rate.

The paper's evaluation assumes arithmetically perfect chips; production
fleets do not (silent data corruption from marginal cores flips bits in
GeMM outputs and collective payloads without any error signal). This
ablation sweeps an SDC rate x mesh size grid and, per point, measures
both planes of the ABFT story:

* functional: seeded :class:`repro.faults.SDCPlan` bit flips are
  injected into the MeshSlice numpy execution with and without the
  checksum protection of :mod:`repro.abft`, and the fraction of trials
  producing a silently wrong result (an *escape*) is counted for each,
  together with the corrected/recomputed block statistics; and
* timed: the simulated makespan of the ABFT-protected program (checksum
  encodes, enlarged payloads, verify + expected-recompute epilogue) over
  the unprotected baseline — the overhead bought for the detection.

Flips sample the full 0..62 bit range, so the functional escape counts
quantify the detection floor honestly: flips in the lowest mantissa
bits can fall below float64 summation rounding and slip through any
sum-based checksum (magnitude ~1e-15; see docs/simulator.md). All
draws derive from the row seed, so the table reproduces bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.algorithms import get_algorithm
from repro.campaign.spec import CampaignSpec
from repro.algorithms.base import GeMMConfig
from repro.core.gemm import GeMMShape
from repro.experiments.common import render_table
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.mesh.topology import Mesh2D
from repro.sim.engine import makespan
from repro.core.dataflow import Dataflow

#: SDC rate sweep: probability of one flip per protected operation.
RATES = (1e-3, 1e-2, 0.05)

#: Mesh size sweep (square meshes; the paper's small-pod shapes).
MESHES = ((2, 2), (4, 4))

#: Functional problem size per trial (kept small: every trial runs a
#: full sharded numpy GeMM plus its protected re-execution).
FUNC_DIM = 32

#: Timed problem size (the simulated programs are cheap to build).
TIMED_DIM = 4096

DEFAULT_TRIALS = 8
DEFAULT_SEED = 2025
DEFAULT_SLICES = 2


@dataclasses.dataclass(frozen=True)
class SDCRow:
    """One (rate, mesh) grid point of the protection sweep."""

    rate: float
    mesh: Tuple[int, int]
    trials: int
    flips: int
    unprotected_escapes: int
    protected_escapes: int
    corrected: int
    recomputed: int
    overhead_pct: float

    @property
    def unprotected_escape_rate(self) -> float:
        if self.trials <= 0:
            return 0.0
        return self.unprotected_escapes / self.trials

    @property
    def protected_escape_rate(self) -> float:
        if self.trials <= 0:
            return 0.0
        return self.protected_escapes / self.trials


def _timed_overhead_pct(
    algorithm: str,
    mesh: Mesh2D,
    rate: float,
    hw: HardwareParams,
    slices: int,
) -> float:
    """Protected-over-unprotected simulated makespan, in percent."""
    algo = get_algorithm(algorithm)
    shape = GeMMShape(m=TIMED_DIM, n=TIMED_DIM, k=TIMED_DIM)
    cfg = GeMMConfig(
        shape=shape, mesh=mesh, dataflow=Dataflow.OS, slices=slices
    )
    base = makespan(algo.build_program(cfg, hw).run())
    protected = makespan(
        algo.build_program(
            dataclasses.replace(cfg, abft=True, sdc_rate=rate), hw
        ).run()
    )
    if base <= 0:
        return 0.0
    return 100.0 * (protected / base - 1.0)


def point(coords) -> List[SDCRow]:
    """One (rate, mesh) grid point's row."""
    import numpy as np

    from repro.abft import abft_gemm
    from repro.faults import SDCPlan, sdc_injection

    algorithm, rate, mesh_shape, trials, seed, slices, hw = coords
    mesh = Mesh2D(*mesh_shape)
    if algorithm == "collective":
        slices = 1  # the collective algorithm has no granularity knob
    dim = FUNC_DIM * max(mesh.rows, mesh.cols)
    func_cfg = GeMMConfig(
        shape=GeMMShape(m=dim, n=dim, k=dim),
        mesh=mesh,
        dataflow=Dataflow.OS,
        slices=slices,
    )
    algo = get_algorithm(algorithm)
    flips = 0
    unprotected_escapes = 0
    protected_escapes = 0
    corrected = 0
    recomputed = 0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        # Integer-valued float64 operands: the clean products are exact,
        # so any output mismatch is corruption, not rounding.
        a = rng.integers(-4, 5, size=(dim, dim)).astype(np.float64)
        b = rng.integers(-4, 5, size=(dim, dim)).astype(np.float64)
        truth = a @ b
        plan = SDCPlan(rate=rate, seed=seed * 100_003 + trial)
        # Exponent-bit flips can inject NaN/inf; the resulting matmul
        # warnings are the injection working, not a numerical bug.
        with np.errstate(invalid="ignore", over="ignore"):
            with sdc_injection(plan) as injector:
                bare = algo.functional(a, b, func_cfg)
            flips += injector.flips
            if injector.flips and not np.array_equal(bare, truth):
                unprotected_escapes += 1
            guarded, report = abft_gemm(
                a, b, mesh, algorithm=algorithm, slices=slices, plan=plan
            )
        corrected += report.corrected
        recomputed += report.recomputed
        if not np.array_equal(guarded, truth):
            protected_escapes += 1
    return [SDCRow(
        rate=rate,
        mesh=mesh.shape,
        trials=trials,
        flips=flips,
        unprotected_escapes=unprotected_escapes,
        protected_escapes=protected_escapes,
        corrected=corrected,
        recomputed=recomputed,
        overhead_pct=_timed_overhead_pct(algorithm, mesh, rate, hw, slices),
    )]


def points(
    rates: Sequence[float] = RATES,
    meshes: Sequence[Tuple[int, int]] = MESHES,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    slices: int = DEFAULT_SLICES,
    algorithm: str = "meshslice",
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """The SDC rate x mesh size grid, with and without ABFT protection."""
    return [
        (algorithm, rate, mesh, trials, seed, slices, hw)
        for rate in rates
        for mesh in meshes
    ]


def table(rows: Sequence[SDCRow]) -> str:
    """The per-point table (``meshslice sdc`` prints it bare)."""
    return render_table(
        ["rate", "mesh", "flips", "escapes (bare)", "escapes (abft)",
         "corrected", "recomputed", "abft overhead"],
        [(f"{r.rate:g}", f"{r.mesh[0]}x{r.mesh[1]}", r.flips,
          f"{r.unprotected_escapes}/{r.trials}",
          f"{r.protected_escapes}/{r.trials}",
          r.corrected, r.recomputed, f"{r.overhead_pct:.1f}%")
         for r in rows],
    )


def render(rows: Sequence[SDCRow]) -> str:
    total_flips = sum(r.flips for r in rows)
    bare = sum(r.unprotected_escapes for r in rows)
    guarded = sum(r.protected_escapes for r in rows)
    lines = [table(rows), ""]
    lines.append(
        f"injected {total_flips} bit flips: {bare} bare escapes vs "
        f"{guarded} with ABFT protection"
    )
    lines.append(
        "(checksums catch every flip above the float64 summation "
        "rounding floor; residual escapes are low-mantissa flips with "
        "error magnitude ~1e-15 — see docs/simulator.md)"
    )
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="ablation-sdc",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
