"""Property-based tests of the observability layer's metric invariants.

Reuses the random-DAG generator of ``test_engine_properties`` (widened
to mixed compute/slice/comm kinds) and checks the invariants any
correct derivation must maintain: utilizations live in the unit
interval, the overlap measure never exceeds either of the unions it
intersects, kind durations partition the total span time, queue-wait
samples cover every started activity, and the derived metrics are
independent of the ``REPRO_NO_CACHE`` kill switch.
"""

import pytest
from hypothesis import given, settings

from repro.algorithms import GeMMConfig, get_algorithm
from repro.core import Dataflow, GeMMShape
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.obs.derive import (
    derive_run_metrics,
    group_waits,
    merge_run_metrics,
    summarize_waits,
)
from repro.obs.hooks import capture_waits
from repro.sim import Engine

from test_engine_properties import random_dag

MIXED_KINDS = ("compute", "slice", "comm")


def _run(activities):
    return Engine(activities, {"hbm": 100.0}).run()


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
        with capture_waits() as waits:
            spans = _run(activities)
        assert len(waits) == len(spans)
        assert all(wait >= -1e-12 for _kind, wait in waits)
        metrics = derive_run_metrics(
            spans, queue_wait=summarize_waits(group_waits(waits))
        )
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
    derivation over the raw wait samples gives."""

    @pytest.mark.parametrize(
        "plan", [None, "soft", "hard"], ids=["heap", "faulted", "hard-failed"]
    )
    def test_lazy_equals_eager(self, plan):
        from repro.sim import simulate

        faults = {"soft": _soft_plan, "hard": _hard_plan}.get(plan, lambda: None)()
        program = _pass_program()
        with capture_waits() as waits:
            spans, failure = program.execute(faults)
        result = simulate(program, TPUV4, faults=faults)
        assert (failure is None) == (plan != "hard")
        assert result.failure == failure
        assert result.spans == spans
        assert waits, "the engine reported no queue waits"
        eager = derive_run_metrics(
            spans, queue_wait=summarize_waits(group_waits(waits))
        )
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
