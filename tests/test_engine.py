"""Tests for the fluid discrete-event simulation engine."""

import pytest

from repro.sim import Activity, CORE, Engine, HBM, LINK_H, SimulationError, makespan


def act(aid, duration, exclusive=(), shared=None, deps=(), label=None, kind="compute"):
    return Activity(
        aid=aid,
        label=label or f"a{aid}",
        kind=kind,
        duration=duration,
        exclusive=tuple(exclusive),
        shared=dict(shared or {}),
        deps=tuple(deps),
    )


class TestBasicExecution:
    def test_single_activity(self):
        spans = Engine([act(0, 2.0)]).run()
        assert len(spans) == 1
        assert spans[0].start == 0.0
        assert spans[0].end == pytest.approx(2.0)

    def test_dependencies_respected(self):
        spans = Engine([act(0, 1.0), act(1, 1.0, deps=[0])]).run()
        by_id = {s.aid: s for s in spans}
        assert by_id[1].start >= by_id[0].end

    def test_independent_activities_run_in_parallel(self):
        spans = Engine([act(0, 2.0), act(1, 2.0)]).run()
        assert makespan(spans) == pytest.approx(2.0)

    def test_zero_duration_activity(self):
        spans = Engine([act(0, 0.0), act(1, 1.0, deps=[0])]).run()
        assert makespan(spans) == pytest.approx(1.0)

    def test_diamond_dag(self):
        spans = Engine(
            [
                act(0, 1.0),
                act(1, 2.0, deps=[0]),
                act(2, 3.0, deps=[0]),
                act(3, 1.0, deps=[1, 2]),
            ]
        ).run()
        assert makespan(spans) == pytest.approx(1.0 + 3.0 + 1.0)

    def test_empty_program(self):
        assert Engine([]).run() == []


class TestExclusiveResources:
    def test_serializes_same_resource(self):
        spans = Engine(
            [act(0, 1.0, exclusive=[CORE]), act(1, 1.0, exclusive=[CORE])]
        ).run()
        assert makespan(spans) == pytest.approx(2.0)
        assert sorted((s.start, s.end) for s in spans) == [(0.0, 1.0), (1.0, 2.0)]

    def test_different_resources_overlap(self):
        spans = Engine(
            [act(0, 1.0, exclusive=[CORE]), act(1, 1.0, exclusive=[LINK_H])]
        ).run()
        assert makespan(spans) == pytest.approx(1.0)

    def test_blocked_head_does_not_stall_other_resources(self):
        """A ready core activity must not block a later link activity."""
        spans = Engine(
            [
                act(0, 5.0, exclusive=[CORE]),
                act(1, 1.0, exclusive=[CORE]),  # queued behind 0
                act(2, 1.0, exclusive=[LINK_H]),  # must start immediately
            ]
        ).run()
        by_id = {s.aid: s for s in spans}
        assert by_id[2].start == pytest.approx(0.0)
        assert by_id[1].start == pytest.approx(5.0)

    def test_fifo_among_equal_ready(self):
        spans = Engine(
            [act(0, 1.0, exclusive=[CORE]), act(1, 1.0, exclusive=[CORE])]
        ).run()
        by_id = {s.aid: s for s in spans}
        assert by_id[0].start < by_id[1].start

    def test_multi_resource_activity(self):
        """Holding both core and link blocks both."""
        spans = Engine(
            [
                act(0, 1.0, exclusive=[CORE, LINK_H]),
                act(1, 1.0, exclusive=[CORE]),
                act(2, 1.0, exclusive=[LINK_H]),
            ]
        ).run()
        by_id = {s.aid: s for s in spans}
        assert by_id[1].start >= 1.0
        assert by_id[2].start >= 1.0


class TestSharedResources:
    def test_undersubscribed_runs_at_full_rate(self):
        engine = Engine(
            [act(0, 1.0, shared={HBM: 10.0}), act(1, 1.0, shared={HBM: 10.0})],
            shared_capacities={HBM: 100.0},
        )
        assert makespan(engine.run()) == pytest.approx(1.0)

    def test_oversubscription_slows_proportionally(self):
        """Two activities each demanding the full capacity take 2x."""
        engine = Engine(
            [act(0, 1.0, shared={HBM: 100.0}), act(1, 1.0, shared={HBM: 100.0})],
            shared_capacities={HBM: 100.0},
        )
        assert makespan(engine.run()) == pytest.approx(2.0)

    def test_partial_contention(self):
        """150% total demand scales both rates by 2/3."""
        engine = Engine(
            [act(0, 1.0, shared={HBM: 75.0}), act(1, 1.0, shared={HBM: 75.0})],
            shared_capacities={HBM: 100.0},
        )
        assert makespan(engine.run()) == pytest.approx(1.5)

    def test_rate_recovery_after_completion(self):
        """When one contender finishes the survivor speeds back up."""
        engine = Engine(
            [act(0, 0.5, shared={HBM: 100.0}), act(1, 1.0, shared={HBM: 100.0})],
            shared_capacities={HBM: 100.0},
        )
        spans = engine.run()
        by_id = {s.aid: s for s in spans}
        # Both halved until t=1.0 (act 0 done), then act 1 full rate:
        # act 1 has 0.5 work left at t=1.0 -> finishes at 1.5.
        assert by_id[0].end == pytest.approx(1.0)
        assert by_id[1].end == pytest.approx(1.5)

    def test_unlisted_shared_resource_is_unconstrained(self):
        engine = Engine([act(0, 1.0, shared={"other": 1e12})])
        assert makespan(engine.run()) == pytest.approx(1.0)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            Engine([act(0, 1.0), act(0, 1.0)])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(SimulationError, match="unknown"):
            Engine([act(0, 1.0, deps=[7])])

    def test_cycle_detected(self):
        with pytest.raises(SimulationError, match="cycle"):
            Engine([act(0, 1.0, deps=[1]), act(1, 1.0, deps=[0])]).run()

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            act(0, -1.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            act(0, 1.0, shared={HBM: -1.0})


class TestSpans:
    def test_span_metadata_preserved(self):
        activity = Activity(
            aid=0, label="x", kind="comm", duration=1.0, meta={"foo": 42}
        )
        spans = Engine([activity]).run()
        assert spans[0].meta["foo"] == 42
        assert spans[0].kind == "comm"
        assert spans[0].duration == pytest.approx(1.0)

    def test_spans_sorted_by_start(self):
        spans = Engine(
            [act(i, 0.5, exclusive=[CORE]) for i in range(5)]
        ).run()
        starts = [s.start for s in spans]
        assert starts == sorted(starts)


class TestHardFaultExecution:
    """Engine.run_with_failures: structured SimFailure semantics."""

    def _dag(self):
        return [
            act(0, 1.0, exclusive=[CORE]),
            act(1, 2.0, exclusive=[LINK_H], deps=[0], kind="comm"),
            act(2, 4.0, exclusive=[CORE], deps=[0]),
        ]

    def test_no_faults_equals_fast_path(self):
        from repro.sim import Engine as E

        acts = self._dag()
        spans, failure, _waits = E(acts).run_with_failures(())
        assert failure is None
        assert spans == E(self._dag()).run()

    def test_late_fault_never_fires(self):
        from repro.faults import chip_down

        acts = self._dag()
        spans, failure, _waits = Engine(acts).run_with_failures(
            (chip_down(100.0),)
        )
        assert failure is None
        assert spans == Engine(self._dag()).run()

    def test_fault_truncates_in_flight_work(self):
        from repro.faults import chip_down

        spans, failure, _waits = Engine(self._dag()).run_with_failures(
            (chip_down(2.5),)
        )
        assert failure is not None
        assert failure.time == 2.5
        assert failure.kind == "chip"
        assert failure.resource == CORE
        # Only activity 0 finished; spans carry completed work only.
        assert [s.aid for s in spans] == [0]
        assert failure.finished == 1
        assert failure.unstarted == 0
        assert {s.aid for s in failure.in_flight} == {1, 2}
        for span in failure.in_flight:
            assert span.end == 2.5
            assert span.meta.get("interrupted") is True
        assert failure.total == 3

    def test_completion_exactly_at_fault_time_counts(self):
        from repro.faults import link_down

        # Activity 1 holds LINK_H over [1, 3]; a link death at exactly
        # t=3 does not interrupt it — completions at the fault instant
        # count as finished. The fault still halts the lockstep step,
        # interrupting the unrelated compute activity 2.
        spans, failure, _waits = Engine(self._dag()).run_with_failures(
            (link_down(3.0, LINK_H),)
        )
        assert failure is not None
        assert [s.aid for s in spans] == [0, 1]
        assert spans[1].end == 3.0
        assert failure.finished == 2
        assert [s.aid for s in failure.in_flight] == [2]

    def test_earliest_fault_wins(self):
        from repro.faults import chip_down, link_down

        _spans, failure, _waits = Engine(self._dag()).run_with_failures(
            (chip_down(4.0), link_down(1.5, LINK_H))
        )
        assert failure is not None
        assert failure.time == 1.5
        assert failure.kind == "link"
        assert failure.resource == LINK_H
