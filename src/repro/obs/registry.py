"""Process-wide metrics registry: counters, gauges, histograms.

The observability layer's collection side. Instrumented code obtains
the process-wide registry via :func:`registry` and bumps named,
labeled series; consumers take a :meth:`MetricsRegistry.snapshot` and hand it
to the exporters in :mod:`repro.obs.export`.

Design constraints, in order:

* **Observation only.** Collection is always on, and simulation
  outputs never read the registry: metrics are observations, not
  inputs.
* **Determinism.** Snapshots are sorted by ``(type, name, labels)``
  and labels are stored as sorted tuples, so two identical workloads
  produce byte-identical exports regardless of dict insertion or hash
  ordering (``PYTHONHASHSEED``).
* **Mergeability.** Every series is a sum (histograms carry bucket
  *counts*, not min/max), so deltas from worker processes can be added
  back into the parent registry in input order — see
  ``repro.experiments.common.grid_map``. Histogram *totals* are
  accumulated in exact fixed-point arithmetic (every finite double is
  an integer multiple of 2^-1074) and records carry the exact value
  alongside the rounded float, so a total assembled from worker deltas
  is bit-identical to one observed serially — float addition is not
  associative, and ulp drift between pooled and serial runs would
  break the byte-determinism contract the exporters promise.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: Canonical label encoding: a tuple of (key, value) pairs sorted by
#: key. Hashable, order-independent, and deterministic to serialize.
Labels = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds): nanoseconds to
#: seventeen minutes in half-decade steps, plus a +inf overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (e / 2.0) for e in range(-18, 7)
)


def _labels_key(labels: Optional[Mapping[str, object]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Fixed-point scale for exact histogram totals: 2^1074 is the
#: reciprocal of the smallest subnormal double, so every finite float
#: is an exact integer multiple of the unit and integer addition is
#: associative where float addition is not.
_FIXED_SHIFT = 1074
_FIXED_ONE = 1 << _FIXED_SHIFT


def _to_fixed(value: float) -> int:
    """A finite float as an exact multiple of 2^-1074."""
    num, den = value.as_integer_ratio()  # den is a power of two
    return num << (_FIXED_SHIFT - (den.bit_length() - 1))


def _fixed_to_float(fixed: int, nonfinite: float) -> float:
    """Round an exact total back to the nearest double.

    ``int / int`` is correctly rounded, so the result depends only on
    the exact sum, not on the grouping that produced it. Any inf/nan
    observations ride in the separate float term.
    """
    try:
        base = fixed / _FIXED_ONE
    except OverflowError:  # pragma: no cover - needs a ~1e308 total
        base = float("inf") if fixed > 0 else float("-inf")
    return base + nonfinite


def _record_exact(rec: "MetricRecord") -> Tuple[int, float]:
    """A histogram record's exact total, deriving it for hand-built
    records whose float total is itself exactly representable."""
    if rec.exact_total is not None:
        return rec.exact_total
    total = rec.total or 0.0
    if total - total == 0.0:
        return _to_fixed(total), 0.0
    return 0, total


@dataclasses.dataclass(frozen=True)
class MetricRecord:
    """One exported series: the unit the JSONL schema serializes.

    ``value`` is the counter total or gauge level; histograms instead
    carry ``count``/``total`` and per-bucket counts (upper-bound keyed,
    ``"+inf"`` for the overflow bucket).
    """

    type: str  # "counter" | "gauge" | "histogram" | "derived"
    name: str
    labels: Labels
    value: Optional[float] = None
    count: Optional[int] = None
    total: Optional[float] = None
    buckets: Optional[Tuple[Tuple[str, int], ...]] = None
    #: Exact histogram total as ``(fixed, nonfinite)`` — the 2^-1074
    #: fixed-point sum plus any inf/nan term. Never serialized (the
    #: JSONL schema carries only the rounded ``total``); it exists so
    #: merges of worker deltas stay exact instead of re-rounding.
    exact_total: Optional[Tuple[int, float]] = None

    def to_record(self) -> Dict[str, object]:
        """The JSON-able dict of one JSONL line (see the schema docs)."""
        record: Dict[str, object] = {
            "type": self.type,
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
        }
        if self.value is not None:
            record["value"] = self.value
        if self.count is not None:
            record["count"] = self.count
        if self.total is not None:
            record["total"] = self.total
        if self.buckets is not None:
            record["buckets"] = {bound: n for bound, n in self.buckets}
        return record

    @property
    def sort_key(self) -> Tuple[str, str, Labels]:
        return (self.type, self.name, self.labels)


class _Histogram:
    """Cumulative-free bucketed distribution: counts, not percentiles.

    Buckets hold the number of observations at or below each upper
    bound (non-cumulative, one slot per bound plus overflow), so two
    histograms merge by plain addition.
    """

    __slots__ = ("bounds", "counts", "count", "total_fixed", "nonfinite")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total_fixed = 0
        self.nonfinite = 0.0

    @property
    def total(self) -> float:
        return _fixed_to_float(self.total_fixed, self.nonfinite)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record every value, exactly as one :meth:`observe` call each.

        A value lands in the first bucket whose upper bound it does not
        exceed; NaN compares false against every bound, so it joins the
        overflow bucket (``bisect_left`` alone would file it under the
        first bound).
        """
        bounds = self.bounds
        counts = self.counts
        overflow = len(bounds)
        zero = bisect_left(bounds, 0.0)
        fixed = 0
        for value in values:
            if not value:  # 0.0 / -0.0, the common queue wait
                counts[zero] += 1
                continue
            if value == value:
                counts[bisect_left(bounds, value)] += 1
            else:
                counts[overflow] += 1
            if value - value == 0.0:  # finite (inf/nan fail this)
                fixed += _to_fixed(value)
            else:
                self.nonfinite += value
        self.count += len(values)
        self.total_fixed += fixed

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def bucket_items(self) -> Tuple[Tuple[str, int], ...]:
        """Non-empty buckets as ``(upper_bound_repr, count)`` pairs."""
        items: List[Tuple[str, int]] = []
        for i, n in enumerate(self.counts):
            if not n:
                continue
            bound = "+inf" if i == len(self.bounds) else repr(self.bounds[i])
            items.append((bound, n))
        return tuple(items)


class CounterCell:
    """One counter series' total. Hot paths bump ``value`` in place
    (no label key, lookup or lock): CPython switches threads only at
    calls and backward jumps, never inside ``cell.value += 1``, so
    concurrent bumps lose no increments. ``mark`` is the value at the
    holder's last reset, for since-reset views."""

    __slots__ = ("value", "mark")

    def __init__(self) -> None:
        self.value = self.mark = 0.0


class MetricsRegistry:
    """Named, labeled metric series with deterministic snapshots.

    Thread-safe for concurrent writers (a single lock — the
    instrumented paths are far from contended). Reads
    (:meth:`snapshot`) take the same lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Labels], CounterCell] = {}
        #: Series whose cells :meth:`counter` handed out.
        self._held: Set[Tuple[str, Labels]] = set()
        self._gauges: Dict[Tuple[str, Labels], float] = {}
        self._histograms: Dict[Tuple[str, Labels], _Histogram] = {}

    # ------------------------------------------------------------ writers

    def inc(
        self,
        name: str,
        value: float = 1.0,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Add ``value`` to a counter series (creating it at zero)."""
        key = (name, _labels_key(labels))
        with self._lock:
            self._cell(key).value += value

    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> CounterCell:
        """The cell of one counter series, for callers that bump it
        often. Snapshots leave the series out while it reads zero."""
        key = (name, _labels_key(labels))
        with self._lock:
            self._held.add(key)
            return self._cell(key)

    def _cell(self, key: Tuple[str, Labels]) -> CounterCell:
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = CounterCell()
        return cell

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Set a gauge series to its latest level."""
        with self._lock:
            self._gauges[(name, _labels_key(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one observation into a histogram series."""
        self.observe_many(name, (value,), labels)

    def observe_many(
        self,
        name: str,
        values: Sequence[float],
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record a batch of observations into one histogram series.

        Leaves the series exactly as one :meth:`observe` per value
        would, for the cost of one lock and one label key per batch
        (an empty batch creates no series).
        """
        if not values:
            return
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.observe_many(values)

    # ------------------------------------------------------------ readers

    def snapshot(self) -> List[MetricRecord]:
        """Every series as records, sorted by ``(type, name, labels)``."""
        with self._lock:
            held = self._held
            records = [
                MetricRecord("counter", key[0], key[1], value=cell.value)
                for key, cell in self._counters.items()
                if cell.value or key not in held
            ]
            records.extend(
                MetricRecord("gauge", name, labels, value=value)
                for (name, labels), value in self._gauges.items()
            )
            records.extend(
                MetricRecord(
                    "histogram",
                    name,
                    labels,
                    count=hist.count,
                    total=hist.total,
                    buckets=hist.bucket_items(),
                    exact_total=(hist.total_fixed, hist.nonfinite),
                )
                for (name, labels), hist in self._histograms.items()
            )
        records.sort(key=lambda r: r.sort_key)
        return records

    def counter_value(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> float:
        """Current total of one counter series (0.0 if absent)."""
        with self._lock:
            cell = self._counters.get((name, _labels_key(labels)))
            return cell.value if cell is not None else 0.0

    def clear(self) -> None:
        """Drop every series (tests and fresh CLI invocations); cells
        handed out by :meth:`counter` stay attached and restart at 0."""
        with self._lock:
            held = {key: self._counters[key] for key in self._held}
            for cell in held.values():
                cell.value = cell.mark = 0.0
            self._counters = held
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------- merging

    def merge_records(self, records: Iterable[MetricRecord]) -> None:
        """Fold a snapshot (or delta) from another registry into this one.

        Counters and histograms add; gauges take the incoming level
        (last writer wins, as for a local ``set_gauge``).
        """
        with self._lock:
            for rec in records:
                key = (rec.name, rec.labels)
                if rec.type == "counter":
                    self._cell(key).value += rec.value or 0.0
                elif rec.type == "gauge":
                    self._gauges[key] = rec.value or 0.0
                elif rec.type == "histogram":
                    hist = self._histograms.get(key)
                    if hist is None:
                        hist = self._histograms[key] = _Histogram()
                    bounds = {repr(b): i for i, b in enumerate(hist.bounds)}
                    for bound, n in rec.buckets or ():
                        index = (
                            len(hist.bounds)
                            if bound == "+inf"
                            else bounds[bound]
                        )
                        hist.counts[index] += n
                    hist.count += rec.count or 0
                    fixed, nonfinite = _record_exact(rec)
                    hist.total_fixed += fixed
                    hist.nonfinite += nonfinite

    def delta_since(self, before: List[MetricRecord]) -> List[MetricRecord]:
        """The change in every series since an earlier snapshot.

        Counters and histograms subtract; gauges are included at their
        current level whenever they changed (or are new). Series absent
        from ``before`` subtract against zero — in particular a counter
        *created* with a zero increment is omitted exactly like an
        existing counter that did not move, so a delta is a pure
        function of the work done since ``before``, not of which
        process's registry happened to see the series first. Used by
        worker processes to report only the metrics their task
        produced.
        """
        old = {(r.type, r.name, r.labels): r for r in before}
        delta: List[MetricRecord] = []
        for rec in self.snapshot():
            prior = old.get((rec.type, rec.name, rec.labels))
            if prior is None and rec.type != "counter":
                delta.append(rec)
                continue
            if rec.type == "counter":
                change = (rec.value or 0.0) - (
                    (prior.value or 0.0) if prior is not None else 0.0
                )
                if change:
                    delta.append(
                        dataclasses.replace(rec, value=change)
                    )
            elif rec.type == "gauge":
                if rec.value != prior.value:
                    delta.append(rec)
            elif rec.type == "histogram":
                count = (rec.count or 0) - (prior.count or 0)
                if not count:
                    continue
                prior_buckets = dict(prior.buckets or ())
                buckets = tuple(
                    (bound, n - prior_buckets.get(bound, 0))
                    for bound, n in rec.buckets or ()
                    if n - prior_buckets.get(bound, 0)
                )
                cur_fixed, cur_bad = _record_exact(rec)
                prior_fixed, prior_bad = _record_exact(prior)
                exact = (cur_fixed - prior_fixed, cur_bad - prior_bad)
                delta.append(
                    dataclasses.replace(
                        rec,
                        count=count,
                        total=_fixed_to_float(*exact),
                        buckets=buckets,
                        exact_total=exact,
                    )
                )
        return delta


#: The process-wide registry every instrumented site writes to.
GLOBAL_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""
    return GLOBAL_REGISTRY
