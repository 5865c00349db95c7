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

A program is a :class:`Skeleton` — the structure columns plus each
activity's slot in a cost table — and a :class:`CostTable` of
``(duration, shared, meta)`` records; building one scatters the
table's records over the skeleton's slots.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

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


class CostTable:
    """The per-shape half of a program: its ordered cost records.

    Each record is one ``(duration, shared, meta)`` triple, charged to
    every activity whose ``cost_index`` entry is its slot (its position
    in :attr:`records`). :attr:`names` holds the name each record was
    declared under, and :attr:`slots` maps it to the slot; an emission
    loop looks slots up there.
    A table is the one place records are made from a
    :class:`ComputeCost` or a :class:`CommCost`. Records with a
    negative duration or demand are accepted here and rejected when a
    program charges them (see :meth:`Skeleton.columns`).
    """

    __slots__ = ("hw", "records", "names", "invalid", "_nic")

    def __init__(self, hw: HardwareParams):
        self.hw = hw
        self._nic = hw.has_shared_nic
        self.records: List[_Record] = []
        self.names: List[Hashable] = []
        self.invalid: List[int] = []

    @property
    def slots(self) -> Dict[Hashable, int]:
        """Each declared name -> its slot."""
        return {name: slot for slot, name in enumerate(self.names)}

    def _put(
        self,
        name: Hashable,
        duration: float,
        shared: Dict[str, float],
        meta: Dict[str, object],
    ) -> int:
        slot = len(self.records)
        self.names.append(name)
        self.records.append((duration, shared, meta))
        if duration < 0 or (shared and min(shared.values()) < 0):
            self.invalid.append(slot)
        return slot

    def compute(self, name: Hashable, cost: ComputeCost) -> int:
        """Declare a compute kernel's record; returns its slot."""
        hbm_rate = cost.hbm_rate
        return self._put(
            name,
            cost.seconds,
            {HBM: hbm_rate} if hbm_rate > 0 else {},
            {"flops": cost.flops, "hbm_bytes": cost.hbm_bytes},
        )

    def comm(self, name: Hashable, cost: CommCost) -> int:
        """Declare a communication's record; returns its slot."""
        duration = cost.total
        shared = {}
        if duration > 0 and cost.hbm_bytes > 0:
            shared[HBM] = cost.hbm_bytes / duration
        if self._nic and duration > 0 and cost.wire_bytes > 0:
            # On a logical mesh all ring traffic shares the chip's NIC:
            # concurrent collectives in different directions contend
            # (Section 6). The fluid engine stretches both when their
            # combined demand exceeds the NIC bandwidth.
            shared[NIC] = cost.wire_bytes / duration
        return self._put(name, duration, shared, {
            "launch": cost.launch,
            "transfer": cost.transfer,
            "sync": cost.sync,
            "syncs": cost.syncs,
            "hbm_bytes": cost.hbm_bytes,
        })

    def sendrecv(self, name: Hashable, cost: CommCost) -> int:
        """Declare a SendRecv's records; returns the first slot.

        Under partial SendRecv overlap the transfer splits into an
        overlapped and a blocking part: two consecutive slots, which
        :meth:`ProgramBuilder.emit_sendrecv` charges in that order.
        """
        fraction = _sendrecv_overlap(self.hw)
        if not 0.0 < fraction < 1.0:
            return self.comm(name, cost)
        slot = self.comm(name, cost.scaled(fraction))
        self.comm((name, "blocking"), cost.scaled(1.0 - fraction))
        return slot

    def gemm(self, name: Hashable, m: int, n: int, k: int) -> int:
        return self.compute(name, gemm_cost(m, n, k, self.hw))

    def slice(self, name: Hashable, sub_shard_bytes: float) -> int:
        return self.compute(name, slice_cost(sub_shard_bytes, self.hw))

    def checksum(self, name: Hashable, elements: float) -> int:
        return self.compute(name, checksum_cost(elements, self.hw))

    def expected(
        self, name: Hashable, cost: ComputeCost, probability: float
    ) -> int:
        """A kernel charged at its probability-scaled cost.

        Models a recovery epilogue that only sometimes runs — e.g. the
        ABFT recompute of a corrupted block, whose expected duration is
        the block recompute time times the per-run corruption
        probability. FLOPs are reported as zero: recovery work is
        overhead, not useful throughput.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.compute(name, ComputeCost(
            seconds=cost.seconds * probability,
            hbm_bytes=cost.hbm_bytes * probability,
            flops=0.0,
        ))


def _sendrecv_overlap(hw: HardwareParams) -> float:
    """The fraction of a SendRecv that overlaps the compute core."""
    return hw.sendrecv_overlap_fraction if hw.overlap_sendrecv else 0.0


def _picker(cost_index: Tuple[int, ...]) -> Callable[[tuple], tuple]:
    """Picks a column's entries, in activity order, from its per-slot
    values. ``itemgetter`` returns a bare item for a single index, so
    fewer than two activities take a slice of the values instead."""
    if len(cost_index) > 1:
        return itemgetter(*cost_index)
    start = cost_index[0] if cost_index else 0
    return itemgetter(slice(start, start + len(cost_index)))


def shared_capacities(hw: HardwareParams) -> Dict[str, float]:
    """The shared resource capacities a program on ``hw`` runs under."""
    capacities = {HBM: hw.hbm_bandwidth}
    if hw.has_shared_nic:
        capacities[NIC] = hw.nic_bandwidth
    return capacities


class Skeleton:
    """The shape-independent columns of a built program.

    A distributed GeMM pipeline has the same activities, dependencies
    and exclusive resources at every problem shape; only durations,
    shared demands and cost metadata change. A skeleton holds the
    ``aids``, ``labels``, ``kinds``, ``exclusive`` and ``deps`` columns
    once, plus ``cost_index``: the slot of each activity's record in a
    :class:`CostTable` of ``slots`` records. :meth:`columns` scatters a
    table's records over that column; every program built from one
    skeleton shares its structure tuples, and the engine's
    :class:`EngineStructure` (validation, reverse edges, interned
    resources) is derived on first use and kept.
    """

    __slots__ = (
        "aids", "labels", "kinds", "exclusive", "deps", "cost_index", "slots",
        "_pick", "_structure",
    )

    def __init__(
        self,
        aids: Tuple[int, ...],
        labels: Tuple[str, ...],
        kinds: Tuple[str, ...],
        exclusive: Tuple[Tuple[str, ...], ...],
        deps: Tuple[Tuple[int, ...], ...],
        cost_index: Tuple[int, ...],
        slots: int,
    ):
        self.aids = aids
        self.labels = labels
        self.kinds = kinds
        self.exclusive = exclusive
        self.deps = deps
        self.cost_index = cost_index
        self.slots = slots
        self._pick = _picker(cost_index)
        self._structure: Optional[EngineStructure] = None

    def structure(self) -> EngineStructure:
        """The engine's view of this DAG, computed once."""
        structure = self._structure
        if structure is None:
            structure = self._structure = engine_structure(self)
        return structure

    def columns(self, table: CostTable) -> Columns:
        """This DAG's columns with ``table``'s records scattered in.

        Raises :class:`SimulationError` if the table does not hold
        exactly one record per slot. A record with a negative duration
        or demand raises the ``Activity`` check's ``ValueError``, naming
        the first activity that charges it.
        """
        records = table.records
        if len(records) != self.slots:
            raise SimulationError(
                f"a cost table of {len(records)} records does not match "
                f"the program skeleton's {self.slots} slots"
            )
        if table.invalid:
            self._reject(records, table.invalid)
        by_slot = tuple(zip(*records)) or ((), (), ())
        durations, shared, metas = map(self._pick, by_slot)
        return Columns(
            self.aids, self.labels, self.kinds, durations, self.exclusive,
            shared, self.deps, metas,
        )

    def _reject(self, records: Sequence[_Record], invalid: List[int]) -> None:
        for label, slot in zip(self.labels, self.cost_index):
            if slot in invalid:
                if records[slot][0] < 0:
                    raise ValueError(f"activity {label!r} has negative duration")
                raise ValueError(f"activity {label!r} has negative demand")


@dataclasses.dataclass(init=False)
class Program:
    """An activity DAG plus the shared resource capacities it runs under.

    The activities are stored as :class:`Columns` — one tuple per
    attribute — which is what the engine, the pruning bound and fault
    plans read. :attr:`activities` rebuilds :class:`Activity` objects
    from the columns on each read. A program built through a skeleton
    store (:meth:`repro.algorithms.base.DistributedGeMM.assemble`)
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

    A builder appends each activity's structure (id, label, kind,
    exclusive resources, dependencies) and the slot of its record in
    :attr:`table`, a :class:`CostTable`. There are two vocabularies:

    * The ``emit_*`` methods charge a slot the table already holds.
      A skeleton-keyed algorithm declares its records in
      ``costs(cfg, hw)`` and its emission loop charges them by slot
      (:meth:`repro.algorithms.base.DistributedGeMM.assemble`).
    * The direct methods (:meth:`gemm`, :meth:`allgather`, ...) take
      the cost arguments, declare the record and emit the activity.
      Activities charging equal costs share one record, dicts
      included.

    :meth:`skeleton` wraps the structure into a :class:`Skeleton`;
    :meth:`build` scatters the table over it into a runnable
    :class:`Program`. Programs are read-only, so nothing writes to the
    shared record dicts (fault plans copy before rewriting).
    """

    def __init__(self, hw: HardwareParams, table: Optional[CostTable] = None):
        self.hw = hw
        self.table = CostTable(hw) if table is None else table
        self.comm_model = CommCostModel.for_hw(hw)
        # One list per skeleton column (aids, labels, kinds, exclusive,
        # deps, cost_index), and their bound ``append`` methods.
        self._columns: Tuple[list, ...] = ([], [], [], [], [], [])
        self._appends = tuple(column.append for column in self._columns)
        self._next_id = 0
        # The exclusive resources of a collective on each link.
        self._links = {
            link: (link,) if hw.overlap_collectives else (link, CORE)
            for link in (LINK_H, LINK_V)
        }
        self._overlap = _sendrecv_overlap(hw)
        # The direct vocabulary's records: (declaration, cost) -> slot.
        self._charged: Dict[Hashable, int] = {}

    def skeleton(self) -> Skeleton:
        """The structure emitted so far, over this builder's table."""
        return Skeleton(*map(tuple, self._columns), len(self.table.records))

    def build(self, **meta: object) -> Program:
        """Finalize into a runnable :class:`Program`."""
        return Program.from_columns(
            self.skeleton().columns(self.table),
            shared_capacities(self.hw),
            meta,
        )

    # ------------------------------------------------------------ by slot

    def emit_compute(
        self, label: str, slot: int, deps: Sequence[int] = (),
        kind: str = "compute",
    ) -> int:
        """A kernel on the compute core charged to ``slot``."""
        return self._add(label, kind, slot, (CORE,), deps)

    def emit_collective(
        self, label: str, slot: int, link: str, deps: Sequence[int] = ()
    ) -> int:
        """A ring collective on one link direction charged to ``slot``.

        When ``hw.overlap_collectives`` is false the collective also
        claims the compute core.
        """
        exclusive = self._links.get(link)
        if exclusive is None:
            raise ValueError(f"unknown link {link!r}")
        return self._add(label, "comm", slot, exclusive, deps)

    def emit_sendrecv(
        self, label: str, slot: int, link: str, deps: Sequence[int] = ()
    ) -> int:
        """A point-to-point SendRecv charged to the slot(s) that
        :meth:`CostTable.sendrecv` declared at ``slot``.

        Honors ``hw.overlap_sendrecv`` and
        ``hw.sendrecv_overlap_fraction``: the non-overlappable fraction
        of the transfer additionally occupies the compute core,
        modelling compiler-created dependencies (Section 5.3.1).
        """
        fraction = self._overlap
        if fraction >= 1.0:
            return self._add(label, "comm", slot, (link,), deps)
        if fraction <= 0.0:
            return self._add(label, "comm", slot, (link, CORE), deps)
        first = self._add(f"{label}/async", "comm", slot, (link,), deps)
        return self._add(
            f"{label}/blocking", "comm", slot + 1, (link, CORE), (first,)
        )

    def emit_comm(
        self, label: str, slot: int, resources: Sequence[str], deps: Sequence[int] = ()
    ) -> int:
        """A communication on explicit exclusive resources.

        For rings outside the 2D plane (e.g. the replica dimension of a
        3D torus) where the standard link policy does not apply. The
        collective-overlap policy is still honored.
        """
        exclusive = tuple(resources)
        if not self.hw.overlap_collectives and CORE not in exclusive:
            exclusive = exclusive + (CORE,)
        return self._add(label, "comm", slot, exclusive, deps)

    # ------------------------------------------------------------ compute

    def gemm(
        self,
        label: str,
        m: int,
        n: int,
        k: int,
        deps: Sequence[int] = (),
    ) -> int:
        """A local GeMM kernel on the compute core."""
        slot = self._charge(gemm_cost(m, n, k, self.hw), self.table.compute)
        return self.emit_compute(label, slot, deps)

    def slice_copy(
        self, label: str, sub_shard_bytes: float, deps: Sequence[int] = ()
    ) -> int:
        """A blocked slicing (or slice write-back) copy on the core."""
        slot = self._charge(slice_cost(sub_shard_bytes, self.hw), self.table.compute)
        return self.emit_compute(label, slot, deps, kind="slice")

    def checksum(
        self, label: str, elements: float, deps: Sequence[int] = ()
    ) -> int:
        """An ABFT checksum encode/verify pass over ``elements`` elements.

        A memory-bound streaming reduction on the core (zero useful
        FLOPs), used by the ``abft=True`` program variants.
        """
        slot = self._charge(checksum_cost(elements, self.hw), self.table.compute)
        return self.emit_compute(label, slot, deps)

    def expected_compute(
        self,
        label: str,
        cost: ComputeCost,
        probability: float,
        deps: Sequence[int] = (),
    ) -> int:
        """A compute kernel charged at its expected (probability-scaled)
        cost (see :meth:`CostTable.expected`)."""
        slot = self.table.expected(self._fresh(), cost, probability)
        return self.emit_compute(label, slot, deps)

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
        cost = self.comm_model.allgather(ring_size, shard_bytes)
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
        cost = self.comm_model.reducescatter(ring_size, shard_bytes)
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
        exclusive = self._links.get(link)
        if exclusive is None:
            raise ValueError(f"unknown link {link!r}")
        if ring_size <= 1:
            return self.barrier(f"{label}/noop", deps)
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
        comm = self.table.comm
        prev = self._add(
            f"{label}/launch", "comm", self._charge(launch_cost, comm), (), deps
        )
        step = self._charge(step_cost, comm)
        for index in range(ring_size - 1):
            prev = self._add(
                f"{label}/step{index}", "comm", step, exclusive, (prev,)
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
        cost = self.comm_model.broadcast(ring_size, shard_bytes, packets)
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
        cost = self.comm_model.reduce(ring_size, shard_bytes, packets)
        return self._collective(label, cost, link, deps)

    def sendrecv(
        self,
        label: str,
        message_bytes: float,
        link: str,
        deps: Sequence[int] = (),
        hops: int = 1,
    ) -> int:
        """A point-to-point SendRecv (Cannon shifts, Wang decomposition);
        see :meth:`emit_sendrecv` for the overlap policy."""
        cost = self.comm_model.sendrecv(message_bytes, hops)
        slot = self._charge(cost, self.table.sendrecv)
        return self.emit_sendrecv(label, slot, link, deps)

    def _collective(
        self, label: str, cost: CommCost, link: str, deps: Sequence[int]
    ) -> int:
        slot = self._charge(cost, self.table.comm)
        return self.emit_collective(label, slot, link, deps)

    def comm_on(
        self,
        label: str,
        cost: CommCost,
        resources: Sequence[str],
        deps: Sequence[int] = (),
    ) -> int:
        """A communication activity on explicit exclusive resources
        (see :meth:`emit_comm`)."""
        slot = self._charge(cost, self.table.comm)
        return self.emit_comm(label, slot, resources, deps)

    # ---------------------------------------------------------------- plumbing

    @classmethod
    def extending(cls, program: Program, hw: HardwareParams) -> "ProgramBuilder":
        """A builder pre-loaded with an existing program's activities.

        Used to append cluster-level operations (e.g. a data-parallel
        gradient all-reduce) to an algorithm's GeMM program. Each
        existing activity keeps its own record.
        """
        builder = cls(hw)
        cols = program.columns
        for record in zip(cols.durations, cols.shared, cols.metas):
            builder.table._put(builder._fresh(), *record)
        for column, values in zip(builder._columns, (
            cols.aids, cols.labels, cols.kinds, cols.exclusive, cols.deps,
            range(len(cols.aids)),
        )):
            column.extend(values)
        builder._next_id = max(cols.aids, default=-1) + 1
        return builder

    def barrier(self, label: str, deps: Sequence[int]) -> int:
        """A zero-duration ordering point."""
        slot = self._charged.get("barrier")
        if slot is None:
            slot = self._charged["barrier"] = self.table._put(
                "barrier", 0.0, {}, {}
            )
        return self._add(label, "barrier", slot, (), deps)

    def _fresh(self) -> Hashable:
        """A table name no other record of this builder uses."""
        return ("direct", len(self.table.records))

    def _charge(self, cost: object, declare: Callable[[Hashable, object], int]) -> int:
        """The slot of ``cost``'s record, declared on first charge:
        equal costs share one record."""
        name = (declare.__name__, cost)
        slot = self._charged.get(name)
        if slot is None:
            slot = self._charged[name] = declare(name, cost)
        return slot

    def _add(
        self,
        label: str,
        kind: str,
        slot: int,
        exclusive: Tuple[str, ...],
        deps: Sequence[int],
    ) -> int:
        # The hottest call of a first build (one per activity): it
        # appends to the columns directly, allocating nothing new but
        # the dependency tuple.
        aid = self._next_id
        self._next_id = aid + 1
        add_aid, add_label, add_kind, add_exclusive, add_deps, add_slot = (
            self._appends
        )
        add_aid(aid)
        add_label(label)
        add_kind(kind)
        add_exclusive(exclusive)
        add_deps(deps if type(deps) is tuple else tuple(deps))
        add_slot(slot)
        return aid
