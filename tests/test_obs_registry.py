"""Unit tests of the metrics registry."""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounters:
    def test_accumulate(self, reg):
        reg.inc("c")
        reg.inc("c", 2.5)
        assert reg.counter_value("c") == pytest.approx(3.5)

    def test_labeled_series_independent(self, reg):
        reg.inc("c", labels={"k": "a"})
        reg.inc("c", 5.0, labels={"k": "b"})
        assert reg.counter_value("c", labels={"k": "a"}) == 1.0
        assert reg.counter_value("c", labels={"k": "b"}) == 5.0
        assert reg.counter_value("c") == 0.0

    def test_label_order_is_irrelevant(self, reg):
        reg.inc("c", labels={"a": 1, "b": 2})
        reg.inc("c", labels={"b": 2, "a": 1})
        assert reg.counter_value("c", labels={"b": 2, "a": 1}) == 2.0

    def test_absent_series_reads_zero(self, reg):
        assert reg.counter_value("never") == 0.0


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self, reg):
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.0)
        [record] = reg.snapshot()
        assert record.type == "gauge"
        assert record.value == 7.0

    def test_histogram_summary(self, reg):
        for value in (1e-6, 2e-6, 0.5):
            reg.observe("h", value)
        [record] = reg.snapshot()
        assert record.type == "histogram"
        assert record.count == 3
        assert record.total == pytest.approx(0.500003)
        assert sum(n for _bound, n in record.buckets) == 3

    def test_histogram_overflow_bucket(self, reg):
        reg.observe("h", 10.0 * DEFAULT_BUCKETS[-1])
        [record] = reg.snapshot()
        assert record.buckets == (("+inf", 1),)

    def test_histogram_bucket_is_upper_inclusive(self, reg):
        reg.observe("h", DEFAULT_BUCKETS[0])
        [record] = reg.snapshot()
        assert record.buckets == ((repr(DEFAULT_BUCKETS[0]), 1),)


#: Values that stress bucket choice and the exact total: signed zeros,
#: negatives, exact bucket bounds, infinities, NaN, and arbitrary floats.
_EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, -1.0, float("inf"), float("-inf"), float("nan")]
    + list(DEFAULT_BUCKETS[:3] + DEFAULT_BUCKETS[-3:])
)
_OBSERVATIONS = st.lists(
    st.one_of(_EDGE_VALUES, st.floats(allow_nan=True, allow_infinity=True)),
    max_size=40,
)


def _histogram_state(record):
    return (
        record.count,
        record.buckets,
        record.exact_total[0],
        repr(record.exact_total[1]),  # repr: NaN == NaN
    )


class TestObserveMany:
    @settings(max_examples=200, deadline=None)
    @given(_OBSERVATIONS, _OBSERVATIONS)
    def test_matches_one_observe_per_value(self, first, second):
        """A batch leaves the series exactly as per-value observes."""
        single, batched = MetricsRegistry(), MetricsRegistry()
        for value in first + second:
            single.observe("h", value, labels={"kind": "comm"})
        batched.observe_many("h", first, labels={"kind": "comm"})
        batched.observe_many("h", second, labels={"kind": "comm"})
        if not first + second:
            assert single.snapshot() == batched.snapshot() == []
            return
        [one], [many] = single.snapshot(), batched.snapshot()
        assert _histogram_state(many) == _histogram_state(one)
        assert repr(many.total) == repr(one.total)

    @settings(max_examples=200, deadline=None)
    @given(_OBSERVATIONS)
    def test_matches_reference_model(self, values):
        """Bucket = first bound the value does not exceed (NaN and
        anything above the last bound overflow); the finite total is
        exact, the non-finite part a plain float sum."""
        reg = MetricsRegistry()
        reg.observe_many("h", values)
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        for value in values:
            index = next(
                (i for i, b in enumerate(DEFAULT_BUCKETS) if value <= b),
                len(DEFAULT_BUCKETS),
            )
            counts[index] += 1
        expected_buckets = tuple(
            ("+inf" if i == len(DEFAULT_BUCKETS) else repr(DEFAULT_BUCKETS[i]), n)
            for i, n in enumerate(counts)
            if n
        )
        exact = sum(
            (Fraction(v) for v in values if math.isfinite(v)), Fraction(0)
        )
        nonfinite = 0.0
        for value in values:
            if not math.isfinite(value):
                nonfinite += value
        if not values:
            assert reg.snapshot() == []
            return
        [record] = reg.snapshot()
        assert record.count == len(values)
        assert record.buckets == expected_buckets
        assert Fraction(record.exact_total[0], 2**1074) == exact
        assert repr(record.exact_total[1]) == repr(nonfinite)

    def test_nan_lands_in_overflow(self, reg):
        reg.observe_many("h", [float("nan"), float("nan")])
        reg.observe("h", float("nan"))
        [record] = reg.snapshot()
        assert record.buckets == (("+inf", 3),)
        assert math.isnan(record.total)

    def test_signed_zero_and_negatives_in_first_bucket(self, reg):
        reg.observe_many("h", [0.0, -0.0, -5.0, float("-inf")])
        [record] = reg.snapshot()
        assert record.buckets == ((repr(DEFAULT_BUCKETS[0]), 4),)
        assert record.exact_total[0] == (-5.0).as_integer_ratio()[0] << 1074


class TestSnapshotsAndMerge:
    def test_snapshot_sorted(self, reg):
        reg.set_gauge("z", 1.0)
        reg.inc("b")
        reg.inc("a")
        reg.observe("m", 1.0)
        kinds = [(r.type, r.name) for r in reg.snapshot()]
        assert kinds == sorted(kinds)

    def test_clear(self, reg):
        reg.inc("c")
        reg.observe("h", 1.0)
        reg.clear()
        assert reg.snapshot() == []

    def test_merge_adds_counters_and_histograms(self, reg):
        other = MetricsRegistry()
        for r in (reg, other):
            r.inc("c", 2.0)
            r.observe("h", 1e-3)
        reg.merge_records(other.snapshot())
        assert reg.counter_value("c") == 4.0
        hist = [r for r in reg.snapshot() if r.type == "histogram"][0]
        assert hist.count == 2

    def test_merge_gauge_takes_incoming(self, reg):
        other = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        other.set_gauge("g", 9.0)
        reg.merge_records(other.snapshot())
        [record] = reg.snapshot()
        assert record.value == 9.0

    def test_delta_since(self, reg):
        before = reg.snapshot()
        reg.inc("c", 3.0)
        reg.observe("h", 1e-3)
        delta = reg.delta_since(before)
        assert {(r.type, r.name) for r in delta} == {
            ("counter", "c"),
            ("histogram", "h"),
        }

    def test_delta_omits_unchanged(self, reg):
        reg.inc("stable")
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.inc("fresh")
        delta = reg.delta_since(before)
        assert [r.name for r in delta] == ["fresh"]

    def test_delta_subtracts(self, reg):
        reg.inc("c", 10.0)
        before = reg.snapshot()
        reg.inc("c", 2.0)
        [record] = reg.delta_since(before)
        assert record.value == pytest.approx(2.0)

    def test_delta_roundtrips_through_merge(self, reg):
        reg.inc("c", 1.0)
        reg.observe("h", 0.5)
        before = reg.snapshot()
        reg.inc("c", 4.0)
        reg.observe("h", 0.25)
        target = MetricsRegistry()
        target.inc("c", 1.0)
        target.observe("h", 0.5)
        target.merge_records(reg.delta_since(before))
        assert [r.to_record() for r in target.snapshot()] == [
            r.to_record() for r in reg.snapshot()
        ]

    def test_concurrent_increments(self, reg):
        def work():
            for _ in range(500):
                reg.inc("c")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("c") == 2000.0

