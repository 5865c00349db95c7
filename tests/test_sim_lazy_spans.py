"""``SimResult`` keeps a span table and builds its spans on first read.

The lazily built spans must equal what the engine emits when its
tables are read directly, for every way a simulation can run: no fault
plan, a null plan, a perturbing plan, and a hard fault that kills the
run, on a single GeMM program and on a layered stack of them. Equality
and pickling must not depend on whether the spans were read.
"""

from __future__ import annotations

import pickle

import pytest

from program_helpers import repeat_program

from repro.algorithms import GeMMConfig, get_algorithm
from repro.core import GeMMShape
from repro.experiments.common import grid_map
from repro.faults import NULL_PLAN, FaultPlan, FaultSpec, chip_down
from repro.hw import get_preset
from repro.mesh import Mesh2D
from repro.sim import simulate
from repro.sim.engine import Activity, Engine, Span, SpanTable, makespan

TPUV4 = get_preset("tpuv4-sim")
CFG = GeMMConfig(shape=GeMMShape(m=4096, n=2048, k=8192), mesh=Mesh2D(4, 4),
                 slices=4)


def _program(stacked: bool = False):
    program = get_algorithm("meshslice").build_program(CFG, TPUV4)
    return repeat_program(program, 6) if stacked else program


def _plan(name):
    if name == "null":
        return NULL_PLAN
    if name == "soft":
        return FaultSpec(stragglers=2, launch_jitter=0.1, seed=3).sample(
            16, TPUV4
        )
    if name == "hard":
        return FaultPlan(hard_faults=(chip_down(1e-4),))
    return None


def _eager(program, plan):
    """The spans (and failure) of running the engine directly."""
    if plan is None or plan.is_null:
        engine = Engine(program.activities, program.shared_capacities)
        return list(engine.run()), None
    faulted = plan.apply(program)
    spans, failure = Engine(
        faulted.activities, faulted.shared_capacities
    ).run_with_failures(plan.hard_faults)
    return list(spans), failure


@pytest.mark.parametrize(
    "plan, stacked",
    [
        (None, False),
        (None, True),
        ("null", False),
        ("null", True),
        ("soft", False),
        ("soft", True),
        ("hard", False),
    ],
    ids=["heap", "heap-stacked", "null-plan", "null-plan-stacked",
         "faulted", "faulted-stacked", "hard-failed"],
)
def test_lazy_spans_equal_eager_engine_spans(plan, stacked):
    program = _program(stacked)
    faults = _plan(plan)
    eager, failure = _eager(program, faults)
    result = simulate(program, TPUV4, faults=faults)
    assert result.table._spans is None  # nothing built by simulate
    assert len(result.table) == len(eager)
    assert result.failure == failure
    assert (failure is None) == (plan != "hard")
    expected_makespan = failure.time if failure else makespan(eager)
    assert result.makespan == expected_makespan
    assert result.table._spans is None
    spans = result.spans
    assert all(type(span) is Span for span in spans)
    assert spans == eager
    assert result.spans is spans  # built once, cached


def test_equality_does_not_depend_on_reading():
    program = _program()
    read, unread = simulate(program, TPUV4), simulate(program, TPUV4)
    read.spans
    assert read == unread
    assert unread == read
    assert unread.table._spans is None  # comparing built nothing
    other = simulate(_program(stacked=True), TPUV4)
    assert other != unread
    assert unread.table._spans is None and other.table._spans is None


def test_pickle_round_trips_before_and_after_reading():
    result = simulate(_program(), TPUV4, faults=_plan("soft"))
    before = pickle.dumps(result)
    fresh = pickle.loads(before)
    assert fresh == result
    assert fresh.table._spans is None
    result.spans
    after = pickle.dumps(result)
    assert after == before  # the built span list is not carried
    again = pickle.loads(after)
    assert again == result
    assert again.spans == result.spans == fresh.spans


def test_pickled_hard_failure_round_trips():
    result = simulate(_program(), TPUV4, faults=_plan("hard"))
    fresh = pickle.loads(pickle.dumps(result))
    assert fresh == result
    assert fresh.failure == result.failure
    assert fresh.spans == result.spans


def _point(stacked):
    return simulate(_program(stacked), TPUV4)


def test_pooled_results_equal_serial():
    serial = grid_map(_point, [False, True], jobs=1)
    pooled = grid_map(_point, [False, True], jobs=2)
    assert pooled == serial
    for got, want in zip(pooled, serial):
        assert got.spans == want.spans


class TestSpanTable:
    def _acts(self):
        return [
            Activity(0, "a", "compute", 1.0, ("core",)),
            Activity(1, "b", "comm", 2.0, ("link_h",), deps=(0,),
                     meta={"launch": 1e-6}),
            Activity(2, "c", "compute", 0.5, ("core",)),
        ]

    def test_sequence_of_spans(self):
        table = Engine(self._acts()).run()
        assert isinstance(table, SpanTable)
        assert len(table) == 3 and table._spans is None
        assert table.makespan == makespan(list(table)) == 3.0
        assert [span.label for span in table] == ["a", "b", "c"]
        assert table[1].meta == {"launch": 1e-6}
        assert table == list(table) and table == tuple(table)
        assert list(table) == table

    def test_rows_sort_like_start_then_aid(self):
        table = Engine(self._acts()).run()
        assert list(table.rows) == sorted(table.rows)
        assert [(s.start, s.aid) for s in table] == sorted(
            (s.start, s.aid) for s in table
        )

    def test_empty_and_unhashable(self):
        table = Engine([]).run()
        assert table == [] and table.makespan == 0.0
        with pytest.raises(TypeError):
            hash(table)
        assert table != Engine(self._acts()).run()
