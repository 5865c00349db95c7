"""Fluid discrete-event simulation engine.

This engine is the reproduction's stand-in for the paper's customized
SST + rdmaNic + DRAMSim3 stack (Section 4.1). It simulates a
representative chip of an SPMD cluster at *activity* granularity: a
GeMM kernel, a collective communication, or a slicing copy is one
activity with

* a nominal duration (its execution time with no interference),
* a set of **exclusive resources** it occupies (the compute core, one
  ICI link direction), and
* **shared-capacity demands** (HBM bandwidth) under which concurrent
  activities slow each other down proportionally.

Exclusive resources give the paper's overlap semantics for free:
software pipelining emerges from dependency edges plus link/core
serialization, prologues and epilogues appear as the non-overlapped
first/last iterations, and the "no collective overlap on real TPUs"
mode is expressed by making collectives also claim the core. The shared
HBM resource reproduces the only cross-unit interference the paper
models: contention between the NIC and the compute cores for HBM
bandwidth.

The fluid approximation: when the sum of HBM demands exceeds capacity,
every activity's progress rate is scaled by ``capacity / total_demand``
(proportional sharing). Rates are recomputed whenever any activity
starts or finishes, so the simulation is exact for piecewise-constant
demand.

Implementation notes (the event-driven core)
--------------------------------------------

The original engine re-sorted the full ready list, rescanned every
waiting activity, and rebuilt every shared-demand total on *every*
event. This version is event-driven:

* **Ready heap.** Dependency-satisfied activities live in a binary heap
  keyed ``(ready_time, aid)``, so the priority scan of the start phase
  pops candidates in order instead of sorting a list per event.
* **Per-resource wait queues.** An activity blocked on a busy exclusive
  resource parks in that resource's wait queue and is only reconsidered
  when the resource actually frees (resources free exactly at activity
  completion, so a parked activity can never become startable at any
  other moment). Woken waiters re-enter the ready heap, which restores
  the global ``(ready_time, aid)`` service order of the original
  full-list scan.
* **Incremental shared-demand totals.** Each shared resource tracks its
  set of running consumers (in start order). Totals, contention
  factors, and per-activity rates are recomputed only for resources
  whose membership changed at the current event, and only for the
  activities consuming those resources.
* **Columns in, span table out.** The engine reads a program's
  :class:`Columns` and records each finished activity as a plain
  ``(start, aid, index, end)`` row; a run returns the sorted rows as a
  :class:`SpanTable`, which builds :class:`Span` objects only when they
  are read.

Bit-exactness: per-resource totals are re-accumulated from the ordered
consumer set (never incrementally adjusted with ``+= / -=``), which
reproduces the seed engine's left-to-right summation exactly; the time
accumulation, remaining-work decrements, and completion thresholds are
the same floating-point expressions in the same order. The engine is
therefore span-for-span bit-identical with the reference step-loop
implementation kept under ``tests/reference_engine.py`` (enforced by
``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.obs.hooks import wait_sink as _wait_sink

if TYPE_CHECKING:  # pragma: no cover - avoid the sim -> faults cycle
    from repro.faults.hard import HardFault
    from repro.sim.program import Skeleton

#: Canonical resource names used by program builders.
CORE = "core"
LINK_H = "link_h"  # inter-column (horizontal) ICI ring direction
LINK_V = "link_v"  # inter-row (vertical) ICI ring direction
HBM = "hbm"
NIC = "nic"  # shared NIC of a logical-mesh chip (Section 6)

_EPS = 1e-15


# Slotted, which makes the ``Program.activities`` view cheap to build.
@dataclasses.dataclass(slots=True)
class Activity:
    """One unit of simulated work.

    Attributes:
        aid: Unique id within its program.
        label: Human-readable name (shown in traces).
        kind: Category used for reporting, e.g. ``"compute"``,
            ``"comm"``, ``"slice"``.
        duration: Nominal duration in seconds at full rate. May be 0
            for pure ordering points.
        exclusive: Names of exclusive resources held while running.
        shared: Mapping of shared resource name to demand rate
            (units/second at full progress rate).
        deps: Ids of activities that must finish before this starts.
        meta: Free-form metadata (cost breakdowns, flop counts).
    """

    aid: int
    label: str
    kind: str
    duration: float
    exclusive: Tuple[str, ...] = ()
    shared: Dict[str, float] = dataclasses.field(default_factory=dict)
    deps: Tuple[int, ...] = ()
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"activity {self.label!r} has negative duration")
        for demand in self.shared.values():
            if demand < 0:
                raise ValueError(f"activity {self.label!r} has negative demand")


class Columns(NamedTuple):
    """An activity DAG stored as one tuple per :class:`Activity` field.

    Entry ``i`` of every column describes the ``i``-th activity. This
    struct-of-arrays form is what programs keep and what the engine
    reads. It holds no per-activity object the cyclic garbage collector
    has to scan: the collector stops tracking a tuple of atomic values
    once it has seen it, and the ``shared``/``meta`` dicts hold only
    strings and numbers, so they are never tracked. (The two tuples
    holding those dicts stay tracked: CPython never untracks a tuple
    that holds a dict.)
    """

    aids: Tuple[int, ...]
    labels: Tuple[str, ...]
    kinds: Tuple[str, ...]
    durations: Tuple[float, ...]
    exclusive: Tuple[Tuple[str, ...], ...]
    shared: Tuple[Dict[str, float], ...]
    deps: Tuple[Tuple[int, ...], ...]
    metas: Tuple[Dict[str, object], ...]

    @classmethod
    def of(cls, activities: Iterable[Activity]) -> "Columns":
        """The columns of an activity list (dependencies as tuples)."""
        acts = list(activities)
        return cls(
            tuple([a.aid for a in acts]),
            tuple([a.label for a in acts]),
            tuple([a.kind for a in acts]),
            tuple([a.duration for a in acts]),
            tuple([a.exclusive for a in acts]),
            tuple([a.shared for a in acts]),
            tuple([tuple(a.deps) for a in acts]),
            tuple([a.meta for a in acts]),
        )

    def activities(self) -> List[Activity]:
        """One fresh :class:`Activity` per entry (the field order matches)."""
        return list(map(Activity, *self))


class Span(NamedTuple):
    """Recorded execution interval of one activity.

    A ``NamedTuple`` rather than a dataclass: spans are produced in bulk
    (one per activity whenever a run's spans are read) and the C-level
    tuple constructor and attribute access keep materialization cheap.
    """

    aid: int
    label: str
    kind: str
    start: float
    end: float
    exclusive: Tuple[str, ...]
    meta: Dict[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTable(Sequence[Span]):
    """The spans of one run, stored as rows over program columns.

    Each finished activity is one ``(start, aid, index, end)`` row, in
    ``(start, aid)`` order; ``index`` points into the label, kind,
    exclusive and meta columns of the program that ran. The table is a
    read-only sequence of :class:`Span`: the span list is built on the
    first element access and kept, while ``len``, :attr:`makespan`,
    equality and pickling work on the rows and never build it. The
    columns are the program's own, so an unread table adds only its
    rows: tuples of numbers, which the garbage collector stops
    tracking.
    """

    __slots__ = ("rows", "labels", "kinds", "exclusive", "metas", "_spans")

    def __init__(
        self,
        rows: Tuple[Tuple[float, int, int, float], ...],
        labels: Sequence[str],
        kinds: Sequence[str],
        exclusive: Sequence[Tuple[str, ...]],
        metas: Sequence[Dict[str, object]],
    ):
        self.rows = rows
        self.labels = labels
        self.kinds = kinds
        self.exclusive = exclusive
        self.metas = metas
        self._spans: Optional[List[Span]] = None

    def _iter_spans(self) -> Iterator[Span]:
        """The spans, from the built list if there is one, else fresh."""
        if self._spans is not None:
            return iter(self._spans)
        labels, kinds = self.labels, self.kinds
        exclusive, metas = self.exclusive, self.metas
        return (
            Span(aid, labels[i], kinds[i], start, end, exclusive[i], metas[i])
            for start, aid, i, end in self.rows
        )

    def to_list(self) -> List[Span]:
        """The span list, built on first call and cached."""
        spans = self._spans
        if spans is None:
            spans = self._spans = list(self._iter_spans())
        return spans

    @property
    def makespan(self) -> float:
        """End time of the last span (0 for an empty run)."""
        return max([row[3] for row in self.rows], default=0.0)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self.to_list()[index]

    def __iter__(self) -> Iterator[Span]:
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanTable):
            other_spans = other._iter_spans()
        elif isinstance(other, (list, tuple)):
            other_spans = iter(other)
        else:
            return NotImplemented
        return len(self) == len(other) and all(
            map(operator.eq, self._iter_spans(), other_spans)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (
            SpanTable,
            (self.rows, self.labels, self.kinds, self.exclusive, self.metas),
        )

    def __repr__(self) -> str:
        return f"SpanTable({list(self._iter_spans())!r})"


class SimulationError(RuntimeError):
    """Raised for structural problems: cycles, unknown dependencies."""


@dataclasses.dataclass(frozen=True)
class SimFailure:
    """A hard fault interrupted the run (a chip or link died).

    Surfaced by :meth:`Engine.run_with_failures` as a structured result
    — never an exception, and never a silently-truncated span list that
    looks like a fast finish.

    Attributes:
        time: Simulated time at which the victim resource died. The
            cluster's lockstep step halts here; for goodput modeling
            this is the wall time the failing step still consumed.
        resource: The dead resource (``"core"``, ``"link_h"``, ...).
        kind: ``"chip"`` or ``"link"``.
        in_flight: Partial spans of the activities running at the
            failure instant, truncated at ``time`` and marked with
            ``meta["interrupted"] = True``. Sorted by ``(start, aid)``.
        finished: Number of activities that completed before the fault.
        unstarted: Number of activities that never started.
    """

    time: float
    resource: str
    kind: str
    in_flight: Tuple[Span, ...]
    finished: int
    unstarted: int

    @property
    def total(self) -> int:
        """Total activities of the interrupted program."""
        return self.finished + len(self.in_flight) + self.unstarted


class EngineStructure(NamedTuple):
    """What the engine derives from a program's shape-independent columns.

    Built once per program by :func:`engine_structure` — or once per
    :class:`repro.sim.program.Skeleton`, shared by every program that
    skeleton describes. Only tuples of numbers and one small dict, so
    the garbage collector stops tracking it.
    """

    #: Distinct dependencies of each activity.
    dep_count: Tuple[int, ...]
    #: Column indices of each activity's dependents (reverse edges).
    dependents: Tuple[Tuple[int, ...], ...]
    #: Exclusive resource name -> dense index, in first-use order.
    res_index: Dict[str, int]
    #: Each activity's exclusive resources as ``res_index`` indices.
    exclusives: Tuple[Tuple[int, ...], ...]


def engine_structure(columns) -> EngineStructure:
    """Validate a DAG and derive its :class:`EngineStructure`.

    ``columns`` is anything with ``aids``, ``labels``, ``exclusive``
    and ``deps`` columns (a :class:`Columns` or a skeleton). Raises
    :class:`SimulationError` on duplicate ids or an unknown dependency.
    """
    aids = columns.aids
    n_acts = len(aids)
    index_of = {aid: i for i, aid in enumerate(aids)}
    if len(index_of) != n_acts:
        raise SimulationError("duplicate activity ids")
    # Validation and the reverse dependency edges in one pass.
    # Duplicate dep ids collapse, exactly as the reference engine's
    # per-activity dependency *set* collapses them.
    dep_count = [0] * n_acts
    dependents: List[List[int]] = [[] for _ in range(n_acts)]
    for i, deps in enumerate(columns.deps):
        if not deps:
            continue
        if len(deps) > 1:
            deps = set(deps)
        dep_count[i] = len(deps)
        for dep in deps:
            parent = index_of.get(dep)
            if parent is None:
                raise SimulationError(
                    f"activity {columns.labels[i]!r} depends on "
                    f"unknown id {dep}"
                )
            dependents[parent].append(i)
    res_index: Dict[str, int] = {}
    # Programs repeat a handful of exclusive-resource tuples, so each
    # distinct tuple is interned once.
    interned: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
    exclusives: List[Tuple[int, ...]] = [()] * n_acts
    for i, names in enumerate(columns.exclusive):
        hashable = type(names) is tuple
        excl = interned.get(names) if hashable else None
        if excl is None:
            indices = []
            for name in names:
                r = res_index.get(name)
                if r is None:
                    r = res_index[name] = len(res_index)
                indices.append(r)
            excl = tuple(indices)
            if hashable:
                interned[names] = excl
        exclusives[i] = excl
    return EngineStructure(
        tuple(dep_count),
        tuple(map(tuple, dependents)),
        res_index,
        tuple(exclusives),
    )


class Engine:
    """Runs a set of activities to completion.

    Args:
        activities: The activity DAG, as a sequence of
            :class:`Activity` or as a program's :class:`Columns`. Ids
            must be unique and dependencies must refer to existing ids.
        shared_capacities: Capacity (units/second) of each shared
            resource. Demands on resources not listed here are treated
            as unconstrained.
        skeleton: The :class:`repro.sim.program.Skeleton` whose aids,
            labels, exclusive and deps columns ``activities`` shares;
            its (once-computed) structure is reused instead of being
            derived from the columns again.
    """

    def __init__(
        self,
        activities: Union[Columns, Sequence[Activity]],
        shared_capacities: Optional[Dict[str, float]] = None,
        skeleton: Optional["Skeleton"] = None,
    ):
        if not isinstance(activities, Columns):
            activities = Columns.of(activities)
        self.columns = activities
        if skeleton is None:
            self._structure = engine_structure(activities)
        else:
            self._structure = skeleton.structure()
        self.shared_capacities = dict(shared_capacities or {})

    def run(self) -> SpanTable:
        """Execute the DAG; returns spans sorted by start time.

        This is the no-failure fast path: no hard-fault bookkeeping
        runs, and results are bit-identical to the engine before
        failures existed (pinned by ``tests/test_engine_equivalence``).
        """
        spans, _failure = self._run(None, False)
        return spans

    def run_with_failures(
        self, hard_faults: Sequence["HardFault"] = ()
    ) -> Tuple[SpanTable, Optional[SimFailure]]:
        """Execute the DAG under hard faults; may end in a failure.

        Args:
            hard_faults: Permanent resource deaths (duck-typed objects
                with ``time``/``resource``/``kind`` attributes — see
                :mod:`repro.faults.hard`). Only the earliest can fire:
                the lockstep step halts there.

        Returns:
            ``(spans, failure)``. ``failure`` is ``None`` when the
            program completed before any fault time (then ``spans`` is
            exactly :meth:`run`'s result); otherwise the structured
            :class:`SimFailure` with the completed spans so far.

        Activities whose fault plan marked them with
        ``meta["failed_resource"]`` (a transient-outage retry budget
        that exhausted — see ``repro.recovery.retry``) also end the run:
        the named link is declared dead at the instant the activity's
        last backoff expires.
        """
        fault = None
        for candidate in hard_faults:
            if fault is None or candidate.time < fault.time:
                fault = candidate
        return self._run(fault, True)

    def _run(
        self, fault: Optional["HardFault"], check_poison: bool
    ) -> Tuple[SpanTable, Optional[SimFailure]]:
        """Shared event loop of :meth:`run` and :meth:`run_with_failures`.

        Activities are addressed by their column index, and resource
        names are interned to dense list indices up front, so the event
        loops below are pure list/int operations; heap entries carry
        ``(ready_time, aid, index)``, which orders identically to
        ``(ready_time, aid)`` because aids are unique. Each finished
        activity is recorded as a ``(start, aid, index, end)`` row, so
        sorting the rows gives the ``(start, aid)`` span order.

        With ``fault is None`` and ``check_poison`` false the loop's
        arithmetic is untouched — the failure checks are pure
        comparisons behind constant-false guards, so the no-failure
        path stays bit-identical.
        """
        cols = self.columns
        aids = cols.aids
        labels = cols.labels
        kinds = cols.kinds
        durations = cols.durations
        metas = cols.metas
        n_acts = len(aids)

        fail_time = fault.time if fault is not None else None
        poisoned: Optional[Set[int]] = None
        if check_poison:
            marked = {
                i for i, meta in enumerate(metas) if meta.get("failed_resource")
            }
            if marked:
                poisoned = marked

        structure = self._structure
        exclusives = structure.exclusives
        # Shared resources are indexed after the exclusive ones, in
        # first-use order; programs share each cost record's demand
        # dict between activities, so each distinct dict maps once.
        res_index = dict(structure.res_index)
        mapped: Dict[int, Dict[int, float]] = {}
        shareds: List[Dict[int, float]] = [{}] * n_acts
        for i, demands in enumerate(cols.shared):
            if not demands:
                continue
            shared = mapped.get(id(demands))
            if shared is None:
                shared = mapped[id(demands)] = {}
                for name, demand in demands.items():
                    r = res_index.get(name)
                    if r is None:
                        r = res_index[name] = len(res_index)
                    shared[r] = demand
            shareds[i] = shared
        dep_count = list(structure.dep_count)
        dependents = structure.dependents

        n_res = len(res_index)
        capacities: List[Optional[float]] = [None] * n_res
        for name, value in self.shared_capacities.items():
            r = res_index.get(name)
            if r is not None:
                capacities[r] = value

        heappush = heapq.heappush
        heappop = heapq.heappop
        ready_heap = [
            (0.0, aids[i], i) for i in range(n_acts) if not dep_count[i]
        ]
        heapq.heapify(ready_heap)

        busy: List[bool] = [False] * n_res
        # index -> [start, remaining, completion threshold, rate], in
        # start order.
        running: Dict[int, List[float]] = {}
        # Per exclusive resource: a min-heap of (ready_time, aid, index)
        # entries parked on it. Only the front waiter is woken when the
        # resource frees; if it re-parks elsewhere while the resource is
        # still free, the next waiter is cascaded into the ready heap.
        # Waiters therefore surface in global (ready_time, aid) order —
        # each cascade releases an entry ranking after its predecessor —
        # which reproduces the reference engine's full rescan without
        # its quadratic wake-all churn.
        wait_q: List[list] = [[] for _ in range(n_res)]
        # index -> resource whose freeing woke it (pending cascade).
        wake_origin: Dict[int, int] = {}
        # Per shared resource: {running index: demand}, in start order,
        # so that re-accumulating a total replays the reference
        # engine's left-to-right summation bit-for-bit.
        members: List[Dict[int, float]] = [{} for _ in range(n_res)]
        factors: List[float] = [1.0] * n_res
        # Shared resources whose consumer set changed since their last
        # total/factor recompute.
        changed: Set[int] = set()

        rows: List[Tuple[float, int, int, float]] = []
        finished = 0
        now = 0.0
        inf = float("inf")
        # Queue-wait observation channel (repro.obs): when a capture is
        # active, each start records how long the activity sat ready but
        # blocked. Pure observation — never read by the loop — so the
        # simulated spans are bit-identical with or without it.
        observed = _wait_sink()
        # Guard against infinite loops on malformed inputs.
        max_steps = 10 * n_acts + 100

        def _table() -> SpanTable:
            rows.sort()
            return SpanTable(tuple(rows), labels, kinds, cols.exclusive, metas)

        def _interrupted(time: float, resource: str, kind: str) -> SimFailure:
            """The structured failure at ``time``; reads live loop state."""
            in_flight = []
            for i, state in running.items():
                meta = dict(metas[i])
                meta["interrupted"] = True
                in_flight.append(
                    Span(aids[i], labels[i], kinds[i], state[0], time,
                         cols.exclusive[i], meta)
                )
            in_flight.sort(key=lambda s: (s.start, s.aid))
            return SimFailure(
                time=time,
                resource=resource,
                kind=kind,
                in_flight=tuple(in_flight),
                finished=finished,
                unstarted=n_acts - finished - len(running),
            )

        _step = 0
        while True:
            _step += 1
            if _step > max_steps:
                raise SimulationError("simulation did not converge (internal error)")

            # -- Start phase: serve newly-ready and woken activities in
            # (ready_time, aid) order; blocked ones park on the first
            # busy resource they need.
            while ready_heap:
                item = heappop(ready_heap)
                i = item[2]
                origin = wake_origin.pop(i, -1) if wake_origin else -1
                exclusive = exclusives[i]
                blocked_on = -1
                for r in exclusive:
                    if busy[r]:
                        blocked_on = r
                        break
                if blocked_on >= 0:
                    heappush(wait_q[blocked_on], item)
                    # This waiter moved on while its wake-origin is
                    # still free: give the origin's next waiter a turn.
                    if origin >= 0 and not busy[origin]:
                        queue = wait_q[origin]
                        if queue:
                            nxt = heappop(queue)
                            wake_origin[nxt[2]] = origin
                            heappush(ready_heap, nxt)
                    continue
                for r in exclusive:
                    busy[r] = True
                if observed is not None:
                    observed.append((kinds[i], now - item[0]))
                duration = durations[i]
                running[i] = [
                    now,
                    duration if duration > 0.0 else 0.0,
                    _EPS * (duration if duration > 1.0 else 1.0),
                    1.0,
                ]
                shared = shareds[i]
                if shared:
                    for r, demand in shared.items():
                        members[r][i] = demand
                        changed.add(r)

            if not running:
                unresolved = [
                    labels[i] for i in range(n_acts) if dep_count[i]
                ]
                if unresolved:
                    raise SimulationError(
                        f"dependency cycle or starvation among: {unresolved[:5]}"
                    )
                if finished == n_acts:
                    break
                raise SimulationError("no runnable activities but work remains")

            # -- Rate phase: refresh totals/factors of changed resources
            # only, then the rates of their consumers only.
            if changed:
                dirty: Set[int] = set()
                for r in changed:
                    consumers = members[r]
                    if not consumers:
                        continue
                    total = 0.0
                    for demand in consumers.values():
                        total = total + demand
                    capacity = capacities[r]
                    if capacity is None or total <= capacity or total <= 0:
                        factors[r] = 1.0
                    else:
                        factors[r] = capacity / total
                    dirty.update(consumers)
                changed.clear()
                for i in dirty:
                    state = running.get(i)
                    if state is None:
                        continue
                    rate = 1.0
                    for r in shareds[i]:
                        factor = factors[r]
                        if factor < rate:
                            rate = factor
                    state[3] = rate if rate > _EPS else _EPS

            # -- Advance phase: earliest completion defines the step.
            dt = inf
            for state in running.values():
                quotient = state[1] / state[3]
                if quotient < dt:
                    dt = quotient
            if dt < 0:
                raise SimulationError("negative time step (internal error)")
            # A hard fault strictly inside the step interval halts the
            # run at the fault time; completions landing exactly on the
            # fault time still count (the step finished as it died).
            if fail_time is not None and now + dt > fail_time:
                return _table(), _interrupted(
                    fail_time, fault.resource, fault.kind
                )
            now += dt
            completed: List[int] = []
            for i, state in running.items():
                remaining = state[1] - state[3] * dt
                state[1] = remaining
                if remaining <= state[2]:
                    completed.append(i)

            # -- Completion phase: free resources, record spans, wake
            # dependents and parked waiters.
            if poisoned is not None:
                # A completing activity whose retry budget exhausted
                # declares its link permanently dead at this instant;
                # everything still running (itself included) is
                # interrupted.
                for i in completed:
                    if i in poisoned:
                        resource = str(metas[i]["failed_resource"])
                        return _table(), _interrupted(now, resource, "link")
            freed: List[int] = []
            for i in completed:
                state = running.pop(i)
                for r in exclusives[i]:
                    busy[r] = False
                    freed.append(r)
                shared = shareds[i]
                if shared:
                    for r in shared:
                        del members[r][i]
                        changed.add(r)
                rows.append((state[0], aids[i], i, now))
                finished += 1
                for child in dependents[i]:
                    count = dep_count[child] - 1
                    dep_count[child] = count
                    if not count:
                        heappush(ready_heap, (now, aids[child], child))
            for r in freed:
                queue = wait_q[r]
                if queue:
                    nxt = heappop(queue)
                    wake_origin[nxt[2]] = r
                    heappush(ready_heap, nxt)

        return _table(), None


def makespan(spans: Iterable[Span]) -> float:
    """End time of the last span (0 for an empty program)."""
    if isinstance(spans, SpanTable):
        return spans.makespan
    return max((s.end for s in spans), default=0.0)

