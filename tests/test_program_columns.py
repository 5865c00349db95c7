"""Columnar programs against the per-activity forms they replaced.

The pruning bound reads a program's attribute columns. It must be the
same float, to the last bit, as the per-activity implementation kept
below as an oracle. Checked on fuzzed programs (with targeted
one-attribute mutations) and on every program Figure 9 builds.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest

from program_helpers import repeat_program

from repro.experiments import fig09_weak_scaling
from repro.hw import get_preset
from repro.perf.cache import KILL_SWITCH_ENV, _REGISTRY, clear_caches
from repro.perf.pipeline import _BOUND_SAFETY, _program_lower_bound
from repro.sim.engine import Activity, Columns
from repro.sim.program import Program, ProgramBuilder

TPUV4 = get_preset("tpuv4-sim")


def oracle_lower_bound(program):
    """The per-activity pruning bound the columnar bound replaced."""
    exclusive_totals: Dict[str, float] = {}
    shared_units: Dict[str, float] = {}
    dist: Dict[int, float] = {}
    path_bound = 0.0
    topo = True
    for act in program.activities:
        tail = 0.0
        if topo:
            for dep in act.deps:
                d = dist.get(dep)
                if d is None:
                    topo = False
                    break
                if d > tail:
                    tail = d
        duration = act.duration
        if topo:
            reach = tail + duration
            dist[act.aid] = reach
            if reach > path_bound:
                path_bound = reach
        for res in act.exclusive:
            exclusive_totals[res] = exclusive_totals.get(res, 0.0) + duration
        for res, demand in act.shared.items():
            shared_units[res] = shared_units.get(res, 0.0) + demand * duration
    bound = max(exclusive_totals.values(), default=0.0)
    if topo and path_bound > bound:
        bound = path_bound
    for res, units in shared_units.items():
        capacity = program.shared_capacities.get(res)
        if capacity and units / capacity > bound:
            bound = units / capacity
    return bound * _BOUND_SAFETY


def _fuzz_activities(rng):
    n = rng.randint(0, 24)
    acts = []
    for aid in range(n):
        deps = ()
        if aid:
            deps = tuple(rng.sample(range(aid), rng.randint(0, min(3, aid))))
        shared = {}
        if rng.random() < 0.6:
            shared["hbm"] = rng.choice([0.5, 1.0, 4.0])
        if rng.random() < 0.3:
            shared["nic"] = rng.choice([0.5, 2.0])
        meta = {}
        if rng.random() < 0.7:
            meta["flops"] = rng.choice([0.0, 1e9, 3e9])
        acts.append(Activity(
            aid=aid,
            label=rng.choice(["g", "ag", "rs"]) + str(aid % 3),
            kind=rng.choice(["compute", "comm", "slice"]),
            duration=rng.choice([0.0, 0.25, 1.0, 1e-6]),
            exclusive=tuple(rng.sample(("core", "link_h", "link_v"),
                                       rng.randint(0, 2))),
            shared=shared,
            deps=deps,
            meta=meta,
        ))
    return acts


def _mutations(acts, rng):
    """The activity list plus one-attribute variants of it."""
    yield acts
    if not acts:
        return
    i = rng.randrange(len(acts))
    act = acts[i]

    def variant(**changes):
        fields = {
            "aid": act.aid, "label": act.label, "kind": act.kind,
            "duration": act.duration, "exclusive": act.exclusive,
            "shared": dict(act.shared), "deps": act.deps,
            "meta": dict(act.meta),
        }
        fields.update(changes)
        return acts[:i] + [Activity(**fields)] + acts[i + 1:]

    yield variant(label=act.label + "x")
    yield variant(kind="barrier")
    yield variant(duration=act.duration + 0.5)
    yield variant(exclusive=act.exclusive + ("link_d",))
    yield variant(shared={**act.shared, "hbm": 9.0})
    yield variant(meta={**act.meta, "flops": -1.0})
    yield variant(deps=act.deps + act.deps[:1])  # a repeated dep id
    # Same items, other insertion order.
    yield variant(shared=dict(reversed(list(act.shared.items()))))
    yield [Activity(a.aid + 100, a.label, a.kind, a.duration, a.exclusive,
                    a.shared, tuple(d + 100 for d in a.deps), a.meta)
           for a in acts]


def _assert_same_bound(program):
    new = _program_lower_bound(program)
    assert new.hex() == oracle_lower_bound(program).hex()


class TestFuzzedPrograms:
    def _programs(self):
        programs = []
        for seed in range(60):
            rng = random.Random(seed)
            acts = _fuzz_activities(rng)
            capacities = {"hbm": 2.0} if seed % 3 else {"hbm": 2.0, "nic": 1.0}
            for variant in _mutations(acts, rng):
                programs.append(Program(list(variant), dict(capacities)))
        return programs

    def test_bound_bit_identical(self):
        for program in self._programs():
            _assert_same_bound(program)

    def test_out_of_order_dag_skips_path_bound(self):
        acts = [
            Activity(0, "late", "compute", 1.0, ("core",), deps=(1,)),
            Activity(1, "early", "compute", 2.0, ("link_h",)),
        ]
        _assert_same_bound(Program(acts, {}))

    def test_stacked_and_extended_programs(self):
        builder = ProgramBuilder(TPUV4)
        g = builder.gemm("g", 256, 256, 256)
        builder.allgather("ag", 4, 1e6, "link_h", deps=[g])
        block = builder.build()
        extended = ProgramBuilder.extending(block, TPUV4)
        extended.reducescatter("dp", 4, 1e6, "link_v")
        programs = [block, repeat_program(block, 3), extended.build()]
        for program in programs:
            _assert_same_bound(program)


class TestColumns:
    def test_round_trip_through_activities(self):
        acts = _fuzz_activities(random.Random(7))
        program = Program(acts, {"hbm": 1.0})
        assert program.activities == acts
        assert Columns.of(program.activities) == program.columns

    def test_builder_program_equals_activity_program(self):
        builder = ProgramBuilder(TPUV4)
        a = builder.allgather("ag", 4, 1e6, "link_h")
        builder.gemm("g", 512, 512, 512, deps=[a])
        built = builder.build(tag="x")
        rebuilt = Program(built.activities, built.shared_capacities, built.meta)
        assert rebuilt == built
        assert rebuilt.columns == built.columns

    def test_activities_view_is_fresh_per_read(self):
        builder = ProgramBuilder(TPUV4)
        builder.gemm("g", 128, 128, 128)
        program = builder.build()
        first, second = program.activities, program.activities
        assert first == second
        assert first[0] is not second[0]


@pytest.fixture(scope="module")
def fig9_programs():
    """Every program Figure 9 builds, from a serial, cached run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(KILL_SWITCH_ENV, raising=False)
        clear_caches()
        try:
            fig09_weak_scaling.CAMPAIGN.run(
                fig09_weak_scaling.points(), jobs=1
            )
            store = _REGISTRY["built_program"].store
            yield list(store.values())
        finally:
            clear_caches()


class TestFig9Programs:
    def test_bound_bit_identical(self, fig9_programs):
        assert len(fig9_programs) > 100
        for program in fig9_programs:
            _assert_same_bound(program)
