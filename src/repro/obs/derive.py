"""Per-run derived metrics: what one simulated trace *means*.

The registry in :mod:`repro.obs.registry` accumulates process-wide
totals; this module computes the per-execution quantities the paper's
evaluation is built on (Figures 9, 10, 15) from one span list:

* **per-resource utilization** — wall-clock fraction each exclusive
  resource (core, link directions) was held;
* **overlap fraction** — the fraction of the makespan during which
  compute (GeMM kernels and slicing copies) ran concurrently with
  communication: the very overhead-hiding MeshSlice's software
  pipelining exists to maximize;
* **communication breakdown** — nominal launch/transfer/sync totals
  (Figure 10's split);
* **per-kind durations** and **queue-wait statistics** (from the
  engine's ready-heap observations).

Everything here is a pure function of the spans (plus the optional
per-kind queue-wait summary), so derived metrics are
independent of caching (``REPRO_NO_CACHE``) and identical across
processes — properties the test suite pins.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Span kinds that count as computation for the overlap metric (GeMM
#: kernels and blocked slicing copies both occupy the compute core).
COMPUTE_KINDS = ("compute", "slice")


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping intervals into a disjoint union."""
    intervals.sort()
    merged: List[Tuple[float, float]] = []
    for start, end in intervals:
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _measure(intervals: Sequence[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _intersection_measure(
    a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]
) -> float:
    """Total length of the intersection of two disjoint unions."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclasses.dataclass(frozen=True)
class WaitStats:
    """Queue-wait summary of one activity kind."""

    count: int
    total: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclasses.dataclass(frozen=True)
class RunMetrics:
    """Derived metrics of one simulated execution.

    Attributes:
        makespan: End time of the last span (seconds).
        utilization: Busy fraction of each exclusive resource that
            appears in the trace, in ``[0, 1]``.
        busy_seconds: Wall-clock busy time behind each utilization.
        compute_seconds: Union busy time of compute/slice spans.
        comm_seconds: Union busy time of communication spans.
        overlap_seconds: Time compute and communication ran
            concurrently (never exceeds either union).
        overlap_fraction: ``overlap_seconds / makespan`` (0 for an
            empty trace).
        kind_durations: Total span duration per activity kind.
        comm_launch / comm_transfer / comm_sync: Nominal communication
            component totals (Figure 10's split).
        queue_wait: Per-kind ready-but-blocked wait statistics from
            the engine's event heap; empty when derived from spans
            alone.
    """

    makespan: float
    utilization: Mapping[str, float]
    busy_seconds: Mapping[str, float]
    compute_seconds: float
    comm_seconds: float
    overlap_seconds: float
    overlap_fraction: float
    kind_durations: Mapping[str, float]
    comm_launch: float
    comm_transfer: float
    comm_sync: float
    queue_wait: Mapping[str, WaitStats]

    @property
    def comm_total(self) -> float:
        """Total nominal communication time (launch + transfer + sync)."""
        return self.comm_launch + self.comm_transfer + self.comm_sync

    def as_dict(self) -> Dict[str, object]:
        """One nested JSON-able dict (sorted mappings throughout)."""
        return {
            "makespan": self.makespan,
            "utilization": dict(sorted(self.utilization.items())),
            "busy_seconds": dict(sorted(self.busy_seconds.items())),
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "overlap_seconds": self.overlap_seconds,
            "overlap_fraction": self.overlap_fraction,
            "kind_durations": dict(sorted(self.kind_durations.items())),
            "comm_launch": self.comm_launch,
            "comm_transfer": self.comm_transfer,
            "comm_sync": self.comm_sync,
            "queue_wait": {
                kind: {
                    "count": stats.count,
                    "total": stats.total,
                    "max": stats.max,
                }
                for kind, stats in sorted(self.queue_wait.items())
            },
        }

    def to_records(self) -> List[Dict[str, object]]:
        """Flat ``type="derived"`` records in the JSONL schema.

        One record per scalar series, labels identifying the resource
        or kind, sorted by ``(name, labels)`` for byte-stable export.
        """
        records: List[Dict[str, object]] = []

        def emit(name: str, value: float, **labels: str) -> None:
            records.append(
                {
                    "type": "derived",
                    "name": name,
                    "labels": dict(sorted(labels.items())),
                    "value": value,
                }
            )

        emit("run.makespan_seconds", self.makespan)
        emit("run.compute_seconds", self.compute_seconds)
        emit("run.comm_seconds", self.comm_seconds)
        emit("run.overlap_seconds", self.overlap_seconds)
        emit("run.overlap_fraction", self.overlap_fraction)
        emit("run.comm_breakdown_seconds", self.comm_launch, component="launch")
        emit(
            "run.comm_breakdown_seconds",
            self.comm_transfer,
            component="transfer",
        )
        emit("run.comm_breakdown_seconds", self.comm_sync, component="sync")
        for resource in sorted(self.utilization):
            emit(
                "run.utilization",
                self.utilization[resource],
                resource=resource,
            )
            emit(
                "run.busy_seconds",
                self.busy_seconds[resource],
                resource=resource,
            )
        for kind in sorted(self.kind_durations):
            emit("run.kind_seconds", self.kind_durations[kind], kind=kind)
        for kind in sorted(self.queue_wait):
            stats = self.queue_wait[kind]
            emit("run.queue_wait_count", float(stats.count), kind=kind)
            emit("run.queue_wait_seconds", stats.total, kind=kind)
            emit("run.queue_wait_max_seconds", stats.max, kind=kind)
        records.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return records


def summarize_waits(waits: Mapping[str, Sequence[float]]) -> Dict[str, WaitStats]:
    """Per-kind :class:`WaitStats` of one run's queue waits (the
    engine's :data:`repro.sim.engine.QueueWaits`)."""
    return {
        kind: WaitStats(count=len(values), total=sum(values), max=max(values))
        for kind, values in waits.items()
    }


def derive_run_metrics(
    spans: Iterable[object],
    *,
    queue_wait: Optional[Mapping[str, WaitStats]] = None,
) -> RunMetrics:
    """Compute :class:`RunMetrics` from one execution's spans.

    ``spans`` is any iterable of :class:`repro.sim.engine.Span`-shaped
    objects; ``queue_wait`` the engine's queue-wait samples for the
    same run summarized per kind (:func:`summarize_waits`), empty when
    not given.
    """
    span_list = list(spans)
    makespan = max((s.end for s in span_list), default=0.0)

    resource_intervals: Dict[str, List[Tuple[float, float]]] = {}
    compute_intervals: List[Tuple[float, float]] = []
    comm_intervals: List[Tuple[float, float]] = []
    kind_durations: Dict[str, float] = {}
    launch = transfer = sync = 0.0
    for span in span_list:
        kind_durations[span.kind] = (
            kind_durations.get(span.kind, 0.0) + span.duration
        )
        interval = (span.start, span.end)
        for resource in span.exclusive:
            resource_intervals.setdefault(resource, []).append(interval)
        if span.kind in COMPUTE_KINDS:
            compute_intervals.append(interval)
        elif span.kind == "comm":
            comm_intervals.append(interval)
            launch += float(span.meta.get("launch", 0.0))
            transfer += float(span.meta.get("transfer", 0.0))
            sync += float(span.meta.get("sync", 0.0))

    busy_seconds = {
        resource: _measure(_union(intervals))
        for resource, intervals in resource_intervals.items()
    }
    utilization = {
        resource: (busy / makespan if makespan > 0 else 0.0)
        for resource, busy in busy_seconds.items()
    }
    compute_union = _union(compute_intervals)
    comm_union = _union(comm_intervals)
    overlap = _intersection_measure(compute_union, comm_union)

    return RunMetrics(
        makespan=makespan,
        utilization=utilization,
        busy_seconds=busy_seconds,
        compute_seconds=_measure(compute_union),
        comm_seconds=_measure(comm_union),
        overlap_seconds=overlap,
        overlap_fraction=overlap / makespan if makespan > 0 else 0.0,
        kind_durations=kind_durations,
        comm_launch=launch,
        comm_transfer=transfer,
        comm_sync=sync,
        queue_wait={} if queue_wait is None else queue_wait,
    )


def merge_run_metrics(metrics: Sequence[RunMetrics]) -> RunMetrics:
    """Aggregate several runs executed back to back (one block).

    Durations, busy times, and waits add; the combined makespan is the
    sum (the passes run sequentially), and utilization/overlap are
    recomputed against it, mirroring how the evaluation aggregates a
    block's twelve GeMMs into one utilization number.
    """
    if not metrics:
        raise ValueError("need at least one RunMetrics")
    makespan = sum(m.makespan for m in metrics)
    busy: Dict[str, float] = {}
    kinds: Dict[str, float] = {}
    waits: Dict[str, WaitStats] = {}
    compute = comm = overlap = launch = transfer = sync = 0.0
    for m in metrics:
        for resource, seconds in m.busy_seconds.items():
            busy[resource] = busy.get(resource, 0.0) + seconds
        for kind, seconds in m.kind_durations.items():
            kinds[kind] = kinds.get(kind, 0.0) + seconds
        for kind, stats in m.queue_wait.items():
            prior = waits.get(kind)
            waits[kind] = WaitStats(
                count=(prior.count if prior else 0) + stats.count,
                total=(prior.total if prior else 0.0) + stats.total,
                max=max(prior.max if prior else 0.0, stats.max),
            )
        compute += m.compute_seconds
        comm += m.comm_seconds
        overlap += m.overlap_seconds
        launch += m.comm_launch
        transfer += m.comm_transfer
        sync += m.comm_sync
    return RunMetrics(
        makespan=makespan,
        utilization={
            resource: (seconds / makespan if makespan > 0 else 0.0)
            for resource, seconds in busy.items()
        },
        busy_seconds=busy,
        compute_seconds=compute,
        comm_seconds=comm,
        overlap_seconds=overlap,
        overlap_fraction=overlap / makespan if makespan > 0 else 0.0,
        kind_durations=kinds,
        comm_launch=launch,
        comm_transfer=transfer,
        comm_sync=sync,
        queue_wait=waits,
    )
