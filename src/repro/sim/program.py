"""Program construction for the cluster simulator.

A *program* is the activity DAG one representative chip of the SPMD
cluster executes for one distributed GeMM (every chip executes the same
schedule, so simulating one chip with its row/column ring timings gives
the cluster makespan). :class:`ProgramBuilder` provides the vocabulary
the algorithm implementations use — compute kernels, slicing copies,
ring collectives, SendRecvs — and centralizes the hardware overlap
policy (Section 5.3): when ``hw.overlap_collectives`` is false,
collective communications also claim the compute core; when SendRecv
overlap is limited, the non-overlappable fraction of each SendRecv
claims the core.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.cost import CommCost, CommCostModel
from repro.hw.params import HardwareParams
from repro.sim.chip import ComputeCost, checksum_cost, gemm_cost, slice_cost
from repro.sim.engine import (
    CORE,
    HBM,
    LINK_H,
    LINK_V,
    NIC,
    Activity,
    Columns,
    Engine,
    EngineStructure,
    SimFailure,
    SimulationError,
    SpanTable,
    engine_structure,
)

if TYPE_CHECKING:  # pragma: no cover - avoid the sim <-> faults cycle
    from repro.faults.plan import FaultPlan

#: One activity's per-shape cost: ``(duration, shared, meta)``.
_Record = Tuple[float, Dict[str, float], Dict[str, object]]


class Skeleton:
    """The shape-independent columns of a built program.

    A distributed GeMM pipeline has the same activities, dependencies
    and exclusive resources at every problem shape; only durations,
    shared demands and cost metadata change. A skeleton holds the
    ``aids``, ``labels``, ``kinds``, ``exclusive`` and ``deps`` columns
    once, every program built from it shares those tuples, and the
    engine's :class:`EngineStructure` (validation, reverse edges,
    interned resources) is derived on first use and kept.
    """

    __slots__ = ("aids", "labels", "kinds", "exclusive", "deps", "_structure")

    def __init__(
        self,
        aids: Tuple[int, ...],
        labels: Tuple[str, ...],
        kinds: Tuple[str, ...],
        exclusive: Tuple[Tuple[str, ...], ...],
        deps: Tuple[Tuple[int, ...], ...],
    ):
        self.aids = aids
        self.labels = labels
        self.kinds = kinds
        self.exclusive = exclusive
        self.deps = deps
        self._structure: Optional[EngineStructure] = None

    def structure(self) -> EngineStructure:
        """The engine's view of this DAG, computed once."""
        structure = self._structure
        if structure is None:
            structure = self._structure = engine_structure(self)
        return structure


@dataclasses.dataclass(init=False)
class Program:
    """An activity DAG plus the shared resource capacities it runs under.

    The activities are stored as :class:`Columns` — one tuple per
    attribute — which is what the engine, the pruning bound and fault
    plans read. :attr:`activities` rebuilds :class:`Activity` objects
    from the columns on each read. A program built through a skeleton
    store (:meth:`repro.algorithms.base.DistributedGeMM.program_builder`)
    carries its :class:`Skeleton`, whose columns its own share; the
    skeleton takes no part in equality.
    """

    columns: Columns
    shared_capacities: Dict[str, float]
    meta: Dict[str, object]
    skeleton: Optional[Skeleton] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __init__(
        self,
        activities: Sequence[Activity],
        shared_capacities: Dict[str, float],
        meta: Optional[Dict[str, object]] = None,
    ):
        self.columns = Columns.of(activities)
        self.shared_capacities = shared_capacities
        self.meta = {} if meta is None else meta
        self.skeleton = None

    @classmethod
    def from_columns(
        cls,
        columns: Columns,
        shared_capacities: Dict[str, float],
        meta: Dict[str, object],
        skeleton: Optional[Skeleton] = None,
    ) -> "Program":
        """A program over existing columns (shared, not copied)."""
        program = cls.__new__(cls)
        program.columns = columns
        program.shared_capacities = shared_capacities
        program.meta = meta
        program.skeleton = skeleton
        return program

    @property
    def activities(self) -> List[Activity]:
        """The activities, as fresh :class:`Activity` objects per read.

        They share their ``shared``/``meta`` dicts with the program:
        treat them as read-only, like the program itself.
        """
        return self.columns.activities()

    def run(self, faults: Optional["FaultPlan"] = None) -> SpanTable:
        """Simulate the program; returns the execution trace.

        ``faults`` applies a :class:`repro.faults.FaultPlan` at the
        engine boundary: the plan rewrites activity durations and the
        unmodified engine runs the perturbed DAG. ``None`` (and any
        null plan) runs the program exactly as built — bit-identical
        to the unfaulted engine.

        Raises :class:`SimulationError` if the plan carries hard
        faults (or an exhaustible retry policy) and the run dies; use
        :meth:`execute` to receive the failure as a value.
        """
        spans, failure = self.execute(faults)
        if failure is not None:
            raise SimulationError(
                f"simulation died at t={failure.time:.6g}s "
                f"({failure.kind} fault on {failure.resource!r}); "
                "use Program.execute() to inspect the SimFailure"
            )
        return spans

    def execute(
        self, faults: Optional["FaultPlan"] = None
    ) -> Tuple[SpanTable, Optional[SimFailure]]:
        """Simulate the program, surfacing hard failures as a value.

        Returns ``(spans, failure)``. ``failure`` is ``None`` for a
        completed run; otherwise a :class:`SimFailure` describing when
        and where the run died, with ``spans`` the (truncated) trace up
        to that instant. With ``faults=None`` this is exactly
        :meth:`run`'s unfaulted fast path.
        """
        if faults is None or faults.is_null:
            # A null plan is a no-op rewrite: run the program as built.
            engine = Engine(self.columns, self.shared_capacities, self.skeleton)
            return engine.run(), None
        # A plan rewrites only durations, shared demands and metas, so
        # the perturbed program keeps this one's skeleton.
        program = faults.apply(self)
        engine = Engine(
            program.columns, program.shared_capacities, self.skeleton
        )
        return engine.run_with_failures(faults.hard_faults)

    @property
    def total_flops(self) -> float:
        """Sum of per-chip FLOPs over all compute activities."""
        return sum(
            float(meta.get("flops", 0.0)) for meta in self.columns.metas
        )


class ProgramBuilder:
    """Builds activity DAGs under one hardware configuration.

    All ``deps`` arguments are sequences of activity ids returned by
    earlier calls. Link serialization (two collectives in the same
    direction cannot overlap) comes from exclusive link resources, so
    builders do not need to chain same-link operations explicitly.

    A builder records a program's structure or replays a
    :class:`Skeleton`:

    * A *recording* builder (the default) appends every column. Given
      ``on_record``, :meth:`build` also wraps the structure into a
      skeleton, passes it to ``on_record`` and attaches it to the
      program.
    * A *replaying* builder (``skeleton=...``) is driven through the
      same calls but appends only each activity's kind and cost;
      :meth:`build` pairs them with the skeleton's columns and raises
      :class:`SimulationError` if the kinds differ from the skeleton's.

    Costs are charged as shared records: all activities charging the
    same cost object — the memoized ``gemm_cost`` / ``slice_cost`` /
    ``checksum_cost`` results, or a collective cost this builder
    memoizes on its arguments — share one ``(duration, shared, meta)``
    record, dicts included. Programs are read-only, so nothing writes
    to those dicts (fault plans copy before rewriting).
    """

    def __init__(
        self,
        hw: HardwareParams,
        skeleton: Optional[Skeleton] = None,
        on_record: Optional[Callable[[Skeleton], None]] = None,
    ):
        self.hw = hw
        self.costs = CommCostModel.for_hw(hw)
        self.skeleton = skeleton
        self._on_record = on_record
        # One list per activity attribute, in ``Columns`` field order;
        # a replaying builder fills only kinds, durations, shared, metas.
        self._columns: Tuple[list, ...] = tuple([] for _ in Columns._fields)
        self._next_id = 0
        # id(cost) -> its record; ``_charged`` keeps each cost alive so
        # its id cannot be reused while this builder lives.
        self._records: Dict[int, _Record] = {}
        self._charged: List[object] = []
        # (cost-model method, *arguments) -> CommCost.
        self._comm_costs: Dict[tuple, object] = {}

    def build(self, **meta: object) -> Program:
        """Finalize into a runnable :class:`Program`."""
        capacities = {HBM: self.hw.hbm_bandwidth}
        if self.hw.has_shared_nic:
            capacities[NIC] = self.hw.nic_bandwidth
        skeleton = self.skeleton
        if skeleton is None:
            columns = Columns._make(map(tuple, self._columns))
            if self._on_record is not None:
                skeleton = Skeleton(
                    columns.aids, columns.labels, columns.kinds,
                    columns.exclusive, columns.deps,
                )
                self._on_record(skeleton)
        else:
            _aids, _labels, kinds, durations, _excl, shared, _deps, metas = (
                self._columns
            )
            if tuple(kinds) != skeleton.kinds:
                raise SimulationError(
                    "replayed activities do not match the program skeleton"
                )
            columns = Columns(
                skeleton.aids, skeleton.labels, skeleton.kinds,
                tuple(durations), skeleton.exclusive, tuple(shared),
                skeleton.deps, tuple(metas),
            )
        return Program.from_columns(columns, capacities, meta, skeleton)

    # ---------------------------------------------------------------- compute

    def gemm(
        self,
        label: str,
        m: int,
        n: int,
        k: int,
        deps: Sequence[int] = (),
    ) -> int:
        """A local GeMM kernel on the compute core."""
        cost = gemm_cost(m, n, k, self.hw)
        return self._compute_activity(label, "compute", cost, deps)

    def slice_copy(
        self, label: str, sub_shard_bytes: float, deps: Sequence[int] = ()
    ) -> int:
        """A blocked slicing (or slice write-back) copy on the core."""
        cost = slice_cost(sub_shard_bytes, self.hw)
        return self._compute_activity(label, "slice", cost, deps)

    def checksum(
        self, label: str, elements: float, deps: Sequence[int] = ()
    ) -> int:
        """An ABFT checksum encode/verify pass over ``elements`` elements.

        A memory-bound streaming reduction on the core (zero useful
        FLOPs), used by the ``abft=True`` program variants.
        """
        cost = checksum_cost(elements, self.hw)
        return self._compute_activity(label, "compute", cost, deps)

    def expected_compute(
        self,
        label: str,
        cost: ComputeCost,
        probability: float,
        deps: Sequence[int] = (),
    ) -> int:
        """A compute kernel charged at its expected (probability-scaled) cost.

        Models a recovery epilogue that only sometimes runs — e.g. the
        ABFT recompute of a corrupted block, whose expected duration is
        the block recompute time times the per-run corruption
        probability. FLOPs are reported as zero: recovery work is
        overhead, not useful throughput.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        scaled = ComputeCost(
            seconds=cost.seconds * probability,
            hbm_bytes=cost.hbm_bytes * probability,
            flops=0.0,
        )
        return self._compute_activity(label, "compute", scaled, deps)

    def _compute_activity(
        self, label: str, kind: str, cost: ComputeCost, deps: Sequence[int]
    ) -> int:
        record = self._records.get(id(cost))
        if record is None:
            hbm_rate = cost.hbm_rate
            record = self._charge(
                label,
                cost,
                cost.seconds,
                {HBM: hbm_rate} if hbm_rate > 0 else {},
                {"flops": cost.flops, "hbm_bytes": cost.hbm_bytes},
            )
        return self._add(label, kind, record, (CORE,), deps)

    # ------------------------------------------------------------------- comm

    def allgather(
        self,
        label: str,
        ring_size: int,
        shard_bytes: float,
        link: str,
        deps: Sequence[int] = (),
        granularity: str = "op",
    ) -> int:
        """A ring AllGather collective on one link direction.

        ``granularity="op"`` models the whole collective as one
        activity (the default; fast and sufficient for overlap
        structure). ``granularity="step"`` emits the ``P - 1``
        individual ring steps as chained activities — the fidelity knob
        used to validate that the op-level aggregation does not distort
        results.
        """
        if granularity == "step":
            return self._collective_steps(
                label, "ag", ring_size, shard_bytes, link, deps
            )
        cost = self._comm_cost("allgather", ring_size, shard_bytes)
        return self._collective(label, cost, link, deps)

    def reducescatter(
        self,
        label: str,
        ring_size: int,
        shard_bytes: float,
        link: str,
        deps: Sequence[int] = (),
        granularity: str = "op",
    ) -> int:
        """A ring ReduceScatter collective on one link direction.

        See :meth:`allgather` for the ``granularity`` option.
        """
        if granularity == "step":
            return self._collective_steps(
                label, "rds", ring_size, shard_bytes, link, deps
            )
        cost = self._comm_cost("reducescatter", ring_size, shard_bytes)
        return self._collective(label, cost, link, deps)

    def _collective_steps(
        self,
        label: str,
        kind: str,
        ring_size: int,
        shard_bytes: float,
        link: str,
        deps: Sequence[int],
    ) -> int:
        """Emit a collective as its individual synchronized ring steps."""
        if link not in (LINK_H, LINK_V):
            raise ValueError(f"unknown link {link!r}")
        if ring_size <= 1:
            return self.barrier(f"{label}/noop", deps)
        exclusive = (link,) if self.hw.overlap_collectives else (link, CORE)
        hbm_factor = 3.0 if kind == "rds" else 2.0
        step_cost = CommCost(
            launch=0.0,
            transfer=shard_bytes / self.hw.ring_bandwidth,
            sync=self.hw.t_sync,
            hbm_bytes=hbm_factor * shard_bytes,
            syncs=1,
            wire_bytes=shard_bytes,
        )
        launch_cost = CommCost(
            launch=self.hw.t_launch, transfer=0.0, sync=0.0,
            hbm_bytes=0.0, syncs=0, wire_bytes=0.0,
        )
        prev = self._comm_activity(f"{label}/launch", launch_cost, (), deps)
        for step in range(ring_size - 1):
            prev = self._comm_activity(
                f"{label}/step{step}", step_cost, exclusive, [prev]
            )
        return prev

    def broadcast(
        self,
        label: str,
        ring_size: int,
        shard_bytes: float,
        packets: int,
        link: str,
        deps: Sequence[int] = (),
    ) -> int:
        """A SUMMA pipelined ring broadcast."""
        cost = self._comm_cost("broadcast", ring_size, shard_bytes, packets)
        return self._collective(label, cost, link, deps)

    def reduce(
        self,
        label: str,
        ring_size: int,
        shard_bytes: float,
        packets: int,
        link: str,
        deps: Sequence[int] = (),
    ) -> int:
        """A SUMMA pipelined ring all-to-one reduce."""
        cost = self._comm_cost("reduce", ring_size, shard_bytes, packets)
        return self._collective(label, cost, link, deps)

    def sendrecv(
        self,
        label: str,
        message_bytes: float,
        link: str,
        deps: Sequence[int] = (),
        hops: int = 1,
    ) -> int:
        """A point-to-point SendRecv (Cannon shifts, Wang decomposition).

        Honors ``hw.overlap_sendrecv`` and
        ``hw.sendrecv_overlap_fraction``: the non-overlappable fraction
        of the transfer additionally occupies the compute core,
        modelling compiler-created dependencies (Section 5.3.1).
        """
        cost = self._comm_cost("sendrecv", message_bytes, hops)
        fraction = (
            self.hw.sendrecv_overlap_fraction if self.hw.overlap_sendrecv else 0.0
        )
        if fraction >= 1.0:
            return self._comm_activity(label, cost, (link,), deps)
        if fraction <= 0.0:
            return self._comm_activity(label, cost, (link, CORE), deps)
        key = ("sendrecv/split", message_bytes, hops)
        halves = self._comm_costs.get(key)
        if halves is None:
            halves = self._comm_costs[key] = (
                cost.scaled(fraction), cost.scaled(1.0 - fraction)
            )
        overlapped, blocking = halves
        first = self._comm_activity(f"{label}/async", overlapped, (link,), deps)
        return self._comm_activity(
            f"{label}/blocking", blocking, (link, CORE), [first]
        )

    def _collective(
        self, label: str, cost: CommCost, link: str, deps: Sequence[int]
    ) -> int:
        if link not in (LINK_H, LINK_V):
            raise ValueError(f"unknown link {link!r}")
        exclusive = (link,) if self.hw.overlap_collectives else (link, CORE)
        return self._comm_activity(label, cost, exclusive, deps)

    def _comm_activity(
        self,
        label: str,
        cost: CommCost,
        exclusive: Sequence[str],
        deps: Sequence[int],
    ) -> int:
        record = self._records.get(id(cost))
        if record is None:
            duration = cost.total
            shared = {}
            if duration > 0 and cost.hbm_bytes > 0:
                shared[HBM] = cost.hbm_bytes / duration
            if (
                self.hw.has_shared_nic
                and duration > 0
                and cost.wire_bytes > 0
            ):
                # On a logical mesh all ring traffic shares the chip's
                # NIC: concurrent collectives in different directions
                # contend (Section 6). The fluid engine stretches both
                # when their combined demand exceeds the NIC bandwidth.
                shared[NIC] = cost.wire_bytes / duration
            record = self._charge(label, cost, duration, shared, {
                "launch": cost.launch,
                "transfer": cost.transfer,
                "sync": cost.sync,
                "syncs": cost.syncs,
                "hbm_bytes": cost.hbm_bytes,
            })
        return self._add(label, "comm", record, exclusive, deps)

    def _comm_cost(self, method: str, *args: float) -> CommCost:
        """``self.costs.<method>(*args)``, memoized for this build."""
        key = (method,) + args
        cost = self._comm_costs.get(key)
        if cost is None:
            cost = self._comm_costs[key] = getattr(self.costs, method)(*args)
        return cost

    def comm_on(
        self,
        label: str,
        cost: CommCost,
        resources: Sequence[str],
        deps: Sequence[int] = (),
    ) -> int:
        """A communication activity on explicit exclusive resources.

        For rings outside the 2D plane (e.g. the replica dimension of a
        3D torus) where the standard link policy does not apply. The
        collective-overlap policy is still honored.
        """
        exclusive = tuple(resources)
        if not self.hw.overlap_collectives and CORE not in exclusive:
            exclusive = exclusive + (CORE,)
        return self._comm_activity(label, cost, exclusive, deps)

    # ---------------------------------------------------------------- plumbing

    @classmethod
    def extending(cls, program: Program, hw: HardwareParams) -> "ProgramBuilder":
        """A builder pre-loaded with an existing program's activities.

        Used to append cluster-level operations (e.g. a data-parallel
        gradient all-reduce) to an algorithm's GeMM program.
        """
        builder = cls(hw)
        builder._columns = tuple(map(list, program.columns))
        builder._next_id = max(program.columns.aids, default=-1) + 1
        return builder

    def barrier(self, label: str, deps: Sequence[int]) -> int:
        """A zero-duration ordering point."""
        return self._add(label, "barrier", (0.0, {}, {}), (), deps)

    def _charge(
        self,
        label: str,
        cost: object,
        duration: float,
        shared: Dict[str, float],
        meta: Dict[str, object],
    ) -> _Record:
        """Register the record of ``cost``, first charged by ``label``.

        The ``Activity.__post_init__`` checks are made here, once per
        record, with identical messages: the first activity charging an
        invalid cost is the one that fails.
        """
        if duration < 0:
            raise ValueError(f"activity {label!r} has negative duration")
        for demand in shared.values():
            if demand < 0:
                raise ValueError(f"activity {label!r} has negative demand")
        record = self._records[id(cost)] = (duration, shared, meta)
        self._charged.append(cost)
        return record

    def _add(
        self,
        label: str,
        kind: str,
        record: _Record,
        exclusive: Sequence[str],
        deps: Sequence[int],
    ) -> int:
        # The hottest call of a sweep (one per activity of every built
        # program), so it appends to the attribute columns directly
        # instead of building an ``Activity``. A replaying builder
        # leaves the structure columns to its skeleton.
        aid = self._next_id
        self._next_id += 1
        aids, labels, kinds, durations, exclusives, shareds, depss, metas = (
            self._columns
        )
        duration, shared, meta = record
        kinds.append(kind)
        durations.append(duration)
        shareds.append(shared)
        metas.append(meta)
        if self.skeleton is None:
            aids.append(aid)
            labels.append(label)
            if type(exclusive) is not tuple:
                exclusive = tuple(exclusive)
            if type(deps) is not tuple:
                deps = tuple(deps)
            exclusives.append(exclusive)
            depss.append(deps)
        return aid


def repeat_program(block: Program, copies: int) -> Program:
    """Stack ``copies`` sequential repetitions of ``block``.

    This is the deep-model constructor: one transformer-style layer
    (``block``, e.g. a distributed GeMM program) repeated layer after
    layer. Copy ``k+1``'s entry activities (those with no intra-block
    dependencies) depend on copy ``k``'s exit activities (those with no
    intra-block dependents) — the layer-to-layer dataflow of a stacked
    model.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    cols = block.columns
    n = len(cols.aids)
    position = {aid: i for i, aid in enumerate(cols.aids)}
    referenced = set()
    for deps in cols.deps:
        referenced.update(deps)
    sinks = tuple(i for i, aid in enumerate(cols.aids) if aid not in referenced)
    aids: List[int] = []
    labels: List[str] = []
    shared: List[Dict[str, float]] = []
    deps_out: List[Tuple[int, ...]] = []
    metas: List[Dict[str, object]] = []
    for k in range(copies):
        base = k * n
        prefix = f"layer{k}/"
        if k:
            entry_deps = tuple(base - n + s for s in sinks)
        else:
            entry_deps = ()
        aids.extend(range(base, base + n))
        labels.extend([prefix + label for label in cols.labels])
        shared.extend([dict(demands) for demands in cols.shared])
        deps_out.extend([
            tuple(base + position[d] for d in deps) if deps else entry_deps
            for deps in cols.deps
        ])
        metas.extend([dict(m) for m in cols.metas])
    columns = Columns(
        tuple(aids),
        tuple(labels),
        cols.kinds * copies,
        cols.durations * copies,
        cols.exclusive * copies,
        tuple(shared),
        tuple(deps_out),
        tuple(metas),
    )
    meta = dict(block.meta)
    meta["copies"] = copies
    return Program.from_columns(
        columns, dict(block.shared_capacities), meta
    )
