"""Shared runners for the evaluation reproduction (Section 5).

The experiment modules compose three ingredients:

* the autotuner's Phase-1 plans (which dataflow each FC-layer training
  GeMM uses),
* per-algorithm mesh-shape optimization — the paper compares every
  algorithm at *its own* optimal mesh shape (Section 4.2) — and
* the cluster simulator, which executes one transformer block's twelve
  training GeMMs (4 FC layers x 3 passes) and aggregates them into the
  FLOP utilization numbers the paper reports.

Slice counts follow the paper's fairness rule: MeshSlice's autotuned
``S`` is also used as the unrolled iteration count of SUMMA and Wang.

Fast path
---------

The mesh-shape search dominated sweep time, so it runs through three
optimizations that leave results bit-identical to the exhaustive
search:

* per-pass simulation results come from the memoized
  ``repro.perf.pipeline`` layer (design-space grids revisit the same
  ``(algorithm, GeMMConfig, HardwareParams)`` triples constantly);
* ``best_block_run`` visits mesh candidates in ascending order of the
  analytical cost estimate, so a near-optimal mesh is simulated first;
* ``run_block`` accepts ``abort_above``, a certified branch-and-bound
  cutoff: passes are simulated in descending order of their makespan
  lower bound, and the mesh is abandoned as soon as the simulated
  partial plus the remaining bounds provably exceed the best block
  found so far. The bound is conservative (see
  ``repro.perf.pipeline.pass_lower_bound``), so only meshes that could
  never win — not even tie — are pruned.

Independent grid points can additionally run in worker processes via
:func:`grid_map` (the ``--jobs`` CLI flag / ``REPRO_JOBS`` env var).
"""

from __future__ import annotations

import dataclasses
import os
import traceback
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.algorithms import GeMMConfig, get_algorithm
from repro.autotuner.costmodel import (
    best_slice_count,
    best_sliced_slice_count,
    meshslice_estimate,
)
from repro.core.dataflow import Dataflow
from repro.autotuner.dataflow import LayerPlan, PassPlan, plan_model
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D, mesh_shapes, square_mesh
from repro.models.config import LLMConfig
from repro.models.nonfc import nonfc_block_seconds
from repro.obs.registry import MetricRecord, registry
from repro.perf.pipeline import (
    pass_compute_floor,
    pass_lower_bound,
    simulated_pass,
)
from repro.sim.cluster import SimResult

#: Safety factor on the branch-and-bound cutoff: a candidate is pruned
#: only when its certified bound exceeds the incumbent by more than one
#: part in 1e9, so floating-point noise can never prune a true tie.
_ABORT_SLACK = 1.0 + 1e-9

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Default weak-scaling cluster sizes (Figure 9 / 12 x-axis).
CLUSTER_SIZES = (16, 32, 64, 128, 256)

#: Display order of the algorithms in Figures 9, 10 and 12.
ALL_ALGORITHMS = ("cannon", "summa", "collective", "wang", "meshslice", "1dtp", "fsdp")


@dataclasses.dataclass
class BlockRun:
    """Simulated execution of one transformer block's FC training GeMMs."""

    algorithm: str
    mesh: Mesh2D
    results: List[SimResult]
    configs: List[GeMMConfig]

    @property
    def seconds(self) -> float:
        """Total FC execution time of one block (per training step)."""
        return sum(r.makespan for r in self.results)

    @property
    def flops_per_chip(self) -> float:
        return sum(r.flops_per_chip for r in self.results)

    def utilization(self, hw: HardwareParams) -> float:
        """FLOP utilization over the block's FC GeMMs (Figure 9 metric)."""
        if self.seconds <= 0:
            return 0.0
        return self.flops_per_chip / (self.seconds * hw.peak_flops)


def tuned_slices(cfg: GeMMConfig, hw: HardwareParams, max_slices: int = 64) -> int:
    """MeshSlice's autotuned slice count for a pass configuration."""
    slices, _estimate = best_slice_count(cfg, hw, max_slices=max_slices)
    return slices


def pass_config(
    plan: LayerPlan,
    pass_name: str,
    mesh: Mesh2D,
    slices: int = 1,
) -> GeMMConfig:
    """Build the GeMMConfig of one layer pass on a given mesh."""
    pass_plan = plan.pass_plan(pass_name)
    return GeMMConfig(
        shape=pass_plan.shape,
        mesh=mesh,
        dataflow=pass_plan.dataflow,
        slices=slices,
        transposed=pass_plan.transposed,
    )


def _base_pass_config(
    algorithm: str, pass_plan: "PassPlan", mesh: Mesh2D
) -> GeMMConfig:
    """The untuned (``slices=1``) configuration of one layer pass."""
    dataflow = pass_plan.dataflow
    transposed = pass_plan.transposed
    if algorithm in ("cannon", "sfc"):
        # Cannon always computes output-stationary, whatever dataflow
        # the plan assigns (Section 7: PrimePar "only uses Cannon's OS
        # algorithm"). The space-filling-curve algorithm is likewise
        # OS-only: the curve orders output tiles.
        dataflow, transposed = Dataflow.OS, False
    return GeMMConfig(
        shape=pass_plan.shape,
        mesh=mesh,
        dataflow=dataflow,
        slices=1,
        transposed=transposed,
    )


def _tuned_pass_config(
    algorithm: str,
    plan: LayerPlan,
    pass_plan: "PassPlan",
    mesh: Mesh2D,
    tune_hw: HardwareParams,
    max_slices: int,
) -> GeMMConfig:
    """Tune and validate one pass; raises ``ValueError`` if unsupported."""
    base = _base_pass_config(algorithm, pass_plan, mesh)
    slices = _slices_for(algorithm, base, tune_hw, max_slices)
    cfg = dataclasses.replace(base, slices=slices)
    reason = get_algorithm(algorithm).check_support(cfg)
    if reason:
        raise ValueError(
            f"{algorithm} cannot run {plan.layer.name}/"
            f"{pass_plan.pass_name} on {mesh}: {reason}"
        )
    return cfg


def block_pass_configs(
    algorithm: str,
    plans: Sequence[LayerPlan],
    mesh: Mesh2D,
    tune_hw: HardwareParams,
    max_slices: int = 64,
) -> List[GeMMConfig]:
    """Validated pass configurations of one block, in plan order.

    Raises ``ValueError`` for the first pass the algorithm cannot run
    on ``mesh``.
    """
    return [
        _tuned_pass_config(algorithm, plan, pass_plan, mesh, tune_hw, max_slices)
        for plan in plans
        for pass_plan in plan.passes
    ]


def run_block(
    algorithm: str,
    plans: Sequence[LayerPlan],
    mesh: Mesh2D,
    hw: HardwareParams,
    tuning_hw: Optional[HardwareParams] = None,
    max_slices: int = 64,
    abort_above: Optional[float] = None,
) -> Optional[BlockRun]:
    """Simulate one block's 12 training GeMMs with one algorithm.

    ``tuning_hw`` lets the slice counts be tuned for a different
    machine than the one simulated (Table 3 runs overlap-tuned
    MeshSlice configurations on the no-overlap cloud preset).

    ``abort_above`` turns the call into a branch-and-bound probe: when
    the certified lower bounds prove the block's total time must exceed
    ``abort_above``, the remaining passes are not simulated and the
    call returns ``None``. Without it a ``BlockRun`` is always
    returned (or ``ValueError`` raised for unsupported passes).
    """
    tune_hw = tuning_hw or hw
    if abort_above is None:
        configs = block_pass_configs(algorithm, plans, mesh, tune_hw, max_slices)
        results: List[Optional[SimResult]] = [
            simulated_pass(algorithm, cfg, hw) for cfg in configs
        ]
        return BlockRun(
            algorithm=algorithm, mesh=mesh, results=results, configs=configs
        )

    cutoff = abort_above * _ABORT_SLACK
    passes = [(plan, pass_plan) for plan in plans for pass_plan in plan.passes]
    # Grow the certified bound one pass at a time, biggest (by the
    # untuned analytical estimate) first: a hopeless mesh is rejected
    # after tuning and bounding only a few passes, without ever
    # deriving the others' slice counts or programs.
    order = sorted(
        range(len(passes)),
        key=lambda i: -meshslice_estimate(
            _base_pass_config(algorithm, passes[i][1], mesh), tune_hw
        ).total,
    )
    configs: List[Optional[GeMMConfig]] = [None] * len(passes)
    # Certified per-pass bounds: passes start at the build-free compute
    # floor and are tightened to the program-based bound one at a time,
    # so partial sums already count every pass and the cutoff trips
    # after tuning/building only a few of them.
    chips = mesh.size
    bounds: List[float] = [
        pass_compute_floor(pass_plan.shape.flops, chips, hw)
        for _plan, pass_plan in passes
    ]
    for i in order:
        plan, pass_plan = passes[i]
        configs[i] = _tuned_pass_config(
            algorithm, plan, pass_plan, mesh, tune_hw, max_slices
        )
        bounds[i] = pass_lower_bound(algorithm, configs[i], hw)
        if sum(bounds) > cutoff:
            return None
    # Simulate the largest bounds first: replacing a bound with its
    # (>=) actual makespan trips the cutoff soonest.
    order.sort(key=lambda i: -bounds[i])
    results = [None] * len(passes)
    actuals: Dict[int, float] = {}
    for rank, i in enumerate(order):
        outstanding = sum(bounds[j] for j in order[rank:])
        if sum(actuals.values()) + outstanding > cutoff:
            return None
        result = simulated_pass(algorithm, configs[i], hw)
        results[i] = result
        actuals[i] = result.makespan
    return BlockRun(algorithm=algorithm, mesh=mesh, results=results, configs=configs)


def _slices_for(
    algorithm: str, base: GeMMConfig, hw: HardwareParams, max_slices: int
) -> int:
    """The granularity each algorithm runs with (Section 4.2)."""
    if algorithm == "collective":
        return 1
    if algorithm == "cannon":
        return 1  # Cannon's iteration count is fixed by the mesh side.
    if algorithm == "sfc":
        return 1  # One output tile per chip; slices is a tile multiplier.
    if algorithm == "sliced":
        # Fences amortize differently from ring syncs (log2(P) rounds
        # per slice vs P - 1 steps), so one-sided slicing tunes S
        # against its own cost model instead of borrowing MeshSlice's.
        slices, _estimate = best_sliced_slice_count(
            base, hw, max_slices=max_slices
        )
        return slices
    # MeshSlice's autotuned S, shared with SUMMA/Wang/1D overlapping
    # (same granularity semantics over ring collectives).
    return tuned_slices(base, hw, max_slices)


def candidate_meshes(algorithm: str, chips: int) -> List[Mesh2D]:
    """Mesh shapes an algorithm may use on a ``chips``-sized cluster."""
    if algorithm in ("1dtp", "fsdp"):
        return [Mesh2D(1, chips)]
    if algorithm == "cannon":
        try:
            return [square_mesh(chips)]
        except ValueError:
            return []
    if algorithm == "sfc":
        # The curve does not need a 2D mesh: degenerate 1 x chips
        # layouts (prime chip counts included) are legal tile grids.
        return mesh_shapes(chips, min_dim=1)
    return mesh_shapes(chips, min_dim=2)


def _candidate_order(
    algorithm: str,
    plans: Sequence[LayerPlan],
    meshes: Sequence[Mesh2D],
    tune_hw: HardwareParams,
    max_slices: int,
) -> List[int]:
    """Candidate indices sorted by the analytical block estimate.

    Purely a search heuristic: visiting a near-optimal mesh first makes
    the ``abort_above`` cutoff bite on almost every other candidate.
    Uses the untuned (``slices=1``) estimates so that ranking a mesh
    never triggers the full slice-count search; the estimates are
    memoized across calls (slice tuning evaluates its candidates
    without them).
    """
    if len(meshes) <= 1:
        return list(range(len(meshes)))
    scores = []
    for idx, mesh in enumerate(meshes):
        total = 0.0
        for plan in plans:
            for pass_plan in plan.passes:
                base = _base_pass_config(algorithm, pass_plan, mesh)
                total += meshslice_estimate(base, tune_hw).total
        scores.append((total, idx))
    scores.sort()
    return [idx for _total, idx in scores]


def best_block_run(
    algorithm: str,
    model: LLMConfig,
    batch_size: int,
    chips: int,
    hw: HardwareParams,
    optimize_dataflow: bool = True,
    tuning_hw: Optional[HardwareParams] = None,
    max_slices: int = 64,
    plans: Optional[Sequence[LayerPlan]] = None,
) -> Optional[BlockRun]:
    """Run one block at the algorithm's own optimal mesh shape.

    Returns ``None`` when the algorithm cannot run at this cluster size
    at all (Cannon on a non-square chip count, FSDP constraints handled
    by callers).

    ``plans`` lets callers that evaluate several algorithms at one
    ``(model, batch)`` point pass the Phase-1 plans in once instead of
    re-deriving them per algorithm; when omitted they are computed
    (``batch_size`` is then the effective batch for ``model.tokens``).

    The search result is identical to exhaustively simulating every
    candidate mesh: candidates are visited in analytical-estimate order
    and abandoned via the certified ``abort_above`` cutoff, and ties on
    ``seconds`` resolve to the earliest mesh in ``candidate_meshes``
    order, exactly as the exhaustive first-strictly-better scan did.
    """
    if plans is None:
        tokens = model.tokens(batch_size)
        plans = plan_model(model, tokens, optimize_dataflow=optimize_dataflow)
    meshes = candidate_meshes(algorithm, chips)
    tune_hw = tuning_hw or hw
    best: Optional[BlockRun] = None
    best_idx = -1
    for idx in _candidate_order(algorithm, plans, meshes, tune_hw, max_slices):
        try:
            run = run_block(
                algorithm, plans, meshes[idx], hw,
                tuning_hw=tuning_hw, max_slices=max_slices,
                abort_above=None if best is None else best.seconds,
            )
        except ValueError:
            continue
        if run is None:
            continue
        if (
            best is None
            or run.seconds < best.seconds
            or (run.seconds == best.seconds and idx < best_idx)
        ):
            best = run
            best_idx = idx
    return best


def end_to_end_step_seconds(
    model: LLMConfig,
    batch_size: int,
    chips: int,
    hw: HardwareParams,
    fc_block_seconds: float,
) -> float:
    """Per-step training time combining FC and non-FC layers.

    The paper combines simulated FC times with single-TPU benchmarks of
    the communication-free non-FC layers (Section 4.4); we substitute
    the analytical non-FC estimate.
    """
    tokens = model.tokens(batch_size)
    nonfc = nonfc_block_seconds(model, tokens, chips, hw)
    return model.num_layers * (fc_block_seconds + nonfc)


def weak_scaling_batch(chips: int) -> int:
    """The paper's weak-scaling rule: batch = half the chip count."""
    return max(1, chips // 2)


#: Environment variable carrying the worker-process count (set by the
#: CLI's ``--jobs`` flag; read by every figure grid).
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


class GridPointError(RuntimeError):
    """A grid worker failed; the message names the offending point.

    A bare exception out of a process pool loses which input caused it
    (``pool.map`` reraises the first failure with no argument context),
    so :func:`grid_map` wraps worker exceptions in this type. The
    original exception is the ``__cause__`` in serial mode; across a
    process pool only its rendering inside the message and the
    ``traceback`` string survive pickling — ``traceback`` preserves
    the worker-side stack that ``__cause__`` loses, so collected
    records can still say *where* a point died.
    """

    def __init__(
        self,
        message: str,
        point: object = None,
        traceback: Optional[str] = None,
    ):
        super().__init__(message)
        self.point = point
        self.traceback = traceback

    def __reduce__(self):
        return (GridPointError, (self.args[0], self.point, self.traceback))


@dataclasses.dataclass
class _MetricsEnvelope:
    """A pooled worker's result plus the metric delta it produced."""

    result: object
    records: List[MetricRecord]


@dataclasses.dataclass
class _GridWorker:
    """Picklable wrapper attaching the grid point to worker failures.

    With ``collect_metrics`` (the process-pool path) each call also
    snapshots the worker process's registry around ``fn`` and ships the
    delta home in a :class:`_MetricsEnvelope`, so pooled runs lose no
    counters. Serial calls never set it — their ``fn`` already writes
    the parent registry directly, and enveloping would double-count.

    With ``on_error="collect"`` a failing point returns its
    :class:`GridPointError` as the point's result instead of raising,
    so one bad point cannot abort the grid.
    """

    fn: Callable
    collect_metrics: bool = False
    on_error: str = "raise"

    def __call__(self, point):
        if not self.collect_metrics:
            return self._run(point)
        reg = registry()
        before = reg.snapshot()
        result = self._run(point)
        return _MetricsEnvelope(result, reg.delta_since(before))

    def _run(self, point):
        try:
            return self.fn(point)
        except GridPointError as exc:
            if self.on_error == "collect":
                return exc
            raise
        except Exception as exc:
            wrapped = GridPointError(
                f"grid point {point!r} failed: "
                f"{type(exc).__name__}: {exc}",
                point,
                traceback.format_exc(),
            )
            if self.on_error == "collect":
                return wrapped
            raise wrapped from exc


def grid_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = None,
    on_error: str = "raise",
    progress: Optional[Callable[[int, object], None]] = None,
) -> List[_R]:
    """Map ``fn`` over independent grid points, in input order.

    With more than one worker the points run in a process pool (``fn``
    and the items must be picklable, i.e. module-level functions).
    Falls back to the serial map when worker processes cannot be
    spawned (restricted sandboxes) or the pool breaks, resuming from
    the first point whose result has not been delivered yet.

    ``on_error`` selects the failure semantics. ``"raise"`` (the
    default) aborts the map on the first failing point with a
    :class:`GridPointError` naming it. ``"collect"`` never aborts:
    each failing point's :class:`GridPointError` takes its slot in the
    returned list, so callers get every healthy result plus a
    structured placeholder per failure (the campaign runner's
    fail-soft substrate).

    ``progress`` is called as ``progress(index, result)`` once per
    point, in input order, as soon as that point's result (and, in
    pooled mode, its metrics delta) has been folded into the parent
    process — the streaming hook the campaign runner appends durable
    records from. A kill mid-run therefore loses only the points whose
    ``progress`` had not fired yet.

    Metrics survive the pool: each worker returns the registry delta
    its point produced and the parent folds the deltas back in *input
    order*, so the merged registry is byte-identical to a serial run
    regardless of pool scheduling (and of ``jobs``).
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    points = list(items)
    workers = min(resolve_jobs(jobs), len(points))
    results: List[_R] = []

    def _deliver(result) -> None:
        if progress is not None:
            progress(len(results), result)
        results.append(result)

    def _serial_from(start: int) -> List[_R]:
        worker = _GridWorker(fn, on_error=on_error)
        for point in points[start:]:
            _deliver(worker(point))
        return results

    if workers <= 1:
        return _serial_from(0)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pooled = _GridWorker(fn, collect_metrics=True, on_error=on_error)
    reg = registry()
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # pool.map yields in input order; envelopes merge and
            # progress fires as each point streams home, so delivered
            # prefixes stay valid even if the pool breaks later.
            for envelope in pool.map(pooled, points):
                reg.merge_records(envelope.records)
                _deliver(envelope.result)
    except (OSError, PermissionError, BrokenProcessPool):
        # Undelivered points rerun serially; delivered ones are kept
        # (their metrics are already merged, their progress fired).
        return _serial_from(len(results))
    return results


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table used by the experiment CLIs and benches."""
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(widths[i]) for i, c in enumerate(cells))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in text_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def utilization_map(
    runs: Dict[str, Optional[BlockRun]], hw: HardwareParams
) -> Dict[str, Optional[float]]:
    """Utilizations of a set of per-algorithm runs (None preserved)."""
    return {
        name: (run.utilization(hw) if run is not None else None)
        for name, run in runs.items()
    }
