"""Property-based tests of the observability layer's metric invariants.

Reuses the random-DAG generator of ``test_engine_properties`` (widened
to mixed compute/slice/comm kinds) and checks the invariants any
correct derivation must maintain: utilizations live in the unit
interval, the overlap measure never exceeds either of the unions it
intersects, kind durations partition the total span time, queue-wait
samples cover every started activity, and the derived metrics are
independent of the ``REPRO_NO_CACHE`` kill switch.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GeMMConfig, get_algorithm
from repro.core import Dataflow, GeMMShape
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.obs.derive import (
    derive_run_metrics,
    merge_run_metrics,
    summarize_waits,
)
from repro.sim import Engine

from test_engine_properties import random_dag

MIXED_KINDS = ("compute", "slice", "comm")


def _run(activities):
    return Engine(activities, {"hbm": 100.0}).run()


def _run_with_failures(activities, hard_faults=()):
    return Engine(activities, {"hbm": 100.0}).run_with_failures(hard_faults)


class TestDerivedInvariants:
    @settings(max_examples=100, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS))
    def test_utilization_in_unit_interval(self, activities):
        metrics = derive_run_metrics(_run(activities))
        for resource, value in metrics.utilization.items():
            assert 0.0 <= value <= 1.0 + 1e-9
            assert metrics.busy_seconds[resource] <= metrics.makespan + 1e-9
            assert metrics.busy_seconds[resource] >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS))
    def test_overlap_bounded_by_both_unions(self, activities):
        metrics = derive_run_metrics(_run(activities))
        bound = min(metrics.compute_seconds, metrics.comm_seconds)
        assert -1e-9 <= metrics.overlap_seconds <= bound + 1e-9
        assert 0.0 <= metrics.overlap_fraction <= 1.0 + 1e-9
        if metrics.makespan > 0:
            assert metrics.overlap_fraction == pytest.approx(
                metrics.overlap_seconds / metrics.makespan
            )

    @settings(max_examples=100, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS))
    def test_kind_durations_partition_span_time(self, activities):
        spans = _run(activities)
        metrics = derive_run_metrics(spans)
        assert sum(metrics.kind_durations.values()) == pytest.approx(
            sum(s.duration for s in spans), abs=1e-9
        )
        # comm components describe nominal comm meta, nothing else
        assert metrics.comm_launch >= 0.0
        assert metrics.comm_transfer >= 0.0
        assert metrics.comm_sync >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS))
    def test_queue_waits_cover_every_start(self, activities):
        spans, _failure, waits = _run_with_failures(activities)
        assert sum(len(values) for values in waits.values()) == len(spans)
        assert all(wait >= -1e-12 for values in waits.values() for wait in values)
        metrics = derive_run_metrics(spans, queue_wait=summarize_waits(waits))
        assert sum(s.count for s in metrics.queue_wait.values()) == len(spans)
        for stats in metrics.queue_wait.values():
            assert stats.max <= stats.total + 1e-12
            assert stats.mean <= stats.max + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS))
    def test_merge_preserves_totals(self, activities):
        spans = _run(activities)
        one = derive_run_metrics(spans)
        merged = merge_run_metrics([one, one])
        assert merged.makespan == pytest.approx(2 * one.makespan)
        assert merged.compute_seconds == pytest.approx(2 * one.compute_seconds)
        assert merged.overlap_seconds == pytest.approx(2 * one.overlap_seconds)
        for resource, busy in one.busy_seconds.items():
            assert merged.busy_seconds[resource] == pytest.approx(2 * busy)
        # utilization is re-normalized against the combined makespan
        for resource, value in one.utilization.items():
            assert merged.utilization[resource] == pytest.approx(value)


class TestKillSwitchIndependence:
    CFG = GeMMConfig(
        GeMMShape(2048, 2048, 2048), Mesh2D(4, 4), Dataflow.OS, slices=4
    )

    def test_metrics_identical_across_cache_switch(self, monkeypatch):
        """Derived metrics never depend on the memoization layer."""
        from repro.perf.cache import clear_caches
        from repro.perf.pipeline import simulated_pass

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        clear_caches()
        warm = simulated_pass("meshslice", self.CFG, TPUV4)
        cached = simulated_pass("meshslice", self.CFG, TPUV4)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        uncached = simulated_pass("meshslice", self.CFG, TPUV4)
        assert cached.metrics.as_dict() == warm.metrics.as_dict()
        assert uncached.metrics.as_dict() == warm.metrics.as_dict()
        assert [s for s in uncached.spans] == [s for s in warm.spans]

    def test_derivable_after_the_fact(self):
        """A run's metrics are recomputable from its spans alone (minus
        the queue waits, which need the live hook)."""
        from repro.sim import simulate

        alg = get_algorithm("meshslice")
        live = simulate(alg.build_program(self.CFG, TPUV4), TPUV4)
        recomputed = derive_run_metrics(live.spans)
        expected = live.metrics.as_dict()
        expected["queue_wait"] = {}
        assert recomputed.as_dict() == expected


def _pass_program():
    return get_algorithm("meshslice").build_program(
        TestKillSwitchIndependence.CFG, TPUV4
    )


def _simulate_pass(stacked=False):
    from repro.sim import simulate
    from program_helpers import repeat_program

    program = _pass_program()
    if stacked:
        program = repeat_program(program, 2)
    return simulate(program, TPUV4)


def _hard_plan():
    from repro.faults import FaultPlan, chip_down

    return FaultPlan(hard_faults=(chip_down(1e-4),))


def _soft_plan():
    from repro.faults import FaultSpec

    return FaultSpec(stragglers=2, launch_jitter=0.1, seed=3).sample(16, TPUV4)


class TestLazyRunMetrics:
    """``SimResult.metrics`` is derived on first read from the per-kind
    wait summary kept at simulation time, and equals what eager
    derivation over the engine's returned wait lists gives."""

    @pytest.mark.parametrize(
        "plan", [None, "soft", "hard"], ids=["heap", "faulted", "hard-failed"]
    )
    def test_lazy_equals_eager(self, plan):
        from repro.sim import simulate

        faults = {"soft": _soft_plan, "hard": _hard_plan}.get(plan, lambda: None)()
        program = _pass_program()
        spans, failure, waits = program.execute(faults)
        result = simulate(program, TPUV4, faults=faults)
        assert (failure is None) == (plan != "hard")
        assert result.failure == failure
        assert result.spans == spans
        assert waits, "the engine reported no queue waits"
        eager = derive_run_metrics(spans, queue_wait=summarize_waits(waits))
        assert result._metrics is None  # nothing derived before the read
        assert result.metrics.as_dict() == eager.as_dict()
        assert result.metrics == eager
        assert result.metrics is result.metrics  # derived once, cached

    def test_pickle_round_trip(self):
        import pickle

        result = _simulate_pass()
        fresh = pickle.loads(pickle.dumps(result))
        assert fresh == result
        assert fresh.metrics == result.metrics
        # A result pickled after its metrics were read carries them.
        again = pickle.loads(pickle.dumps(result))
        assert again.metrics.as_dict() == result.metrics.as_dict()

    def test_survives_process_pool(self):
        from repro.experiments.common import grid_map

        serial = [_simulate_pass(stacked) for stacked in (False, True)]
        pooled = grid_map(_simulate_pass, [False, True], jobs=2)
        assert pooled == serial
        for got, want in zip(pooled, serial):
            assert got.metrics.as_dict() == want.metrics.as_dict()

    def test_equality_tracks_the_wait_summary(self):
        import dataclasses

        live = _simulate_pass()
        assert live == _simulate_pass()
        assert dataclasses.replace(live, queue_wait={}) != live



def _exhausted_plan():
    from repro.faults import FaultPlan
    from repro.recovery import RetryPolicy

    policy = RetryPolicy(max_retries=2, base_backoff=1e-4)
    return FaultPlan(outage_rate=1.0, retry_policy=policy, seed=3)


def _started(spans, failure):
    """Activities a run started: one per row of a completed run; the
    finished plus the in-flight ones of a failed run."""
    if failure is None:
        return len(spans.rows)
    return failure.finished + len(failure.in_flight)


def _wait_count(waits):
    return sum(len(values) for values in waits.values())


class TestReturnedWaits:
    """The engine returns one queue wait per started activity, grouped
    by kind: kinds in first-start order, each list in start order."""

    @pytest.mark.parametrize(
        "plan, fails",
        [(None, False), (_soft_plan, False), (_hard_plan, True),
         (_exhausted_plan, True)],
        ids=["heap", "faulted", "hard-failed", "retry-exhausted"],
    )
    def test_one_wait_per_started_activity(self, plan, fails):
        spans, failure, waits = _pass_program().execute(plan and plan())
        assert (failure is not None) == fails
        assert _wait_count(waits) == _started(spans, failure)

    @settings(max_examples=60, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS), st.floats(0.0, 1.0))
    def test_failed_run_counts_every_started_activity(self, activities, fraction):
        from repro.faults import chip_down

        fault = chip_down(fraction * _run(activities).makespan)
        spans, failure, waits = _run_with_failures(activities, (fault,))
        assert _wait_count(waits) == _started(spans, failure)

    @settings(max_examples=100, deadline=None)
    @given(random_dag(kinds=MIXED_KINDS))
    def test_waits_in_first_start_and_start_order(self, activities):
        spans, failure, waits = _run_with_failures(activities)
        assert failure is None
        # Kinds in first-start order: no kind starts before the one
        # listed ahead of it.
        assert set(waits) == {span.kind for span in spans}
        firsts = [
            min(span.start for span in spans if span.kind == kind)
            for kind in waits
        ]
        assert firsts == sorted(firsts)
        deps = {activity.aid: activity.deps for activity in activities}
        ends = {span.aid: span.end for span in spans}
        for kind, values in waits.items():
            assert all(wait >= 0.0 for wait in values)
            # An activity is ready when its last dependency ends, so it
            # waited its start minus that end. Activities starting at
            # one instant start in ready-heap order, so each such group
            # is compared as a multiset.
            expected = [
                (span.start, span.start - max(
                    (ends[dep] for dep in deps[span.aid]), default=0.0
                ))
                for span in spans
                if span.kind == kind
            ]
            assert len(values) == len(expected)
            position = 0
            for _start, group in itertools.groupby(expected, key=lambda p: p[0]):
                want = sorted(wait for _start, wait in group)
                assert sorted(values[position:position + len(want)]) == want
                position += len(want)
