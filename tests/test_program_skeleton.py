"""Program skeletons against fresh builds.

A build that scatters its cost table over a stored skeleton must
produce exactly the program a store-free build produces by running
its emission loop: the same columns with every float equal to the bit
and of the same type, the same capacities and the same metadata. The
oracle runs every build of the ten paper artifacts and four ablations
with caching on, then rebuilds each one with caching off. Both sides
share ``costs()``; ``test_program_images`` pins that half against
digests taken before the split. The oracle must also catch a skeleton
key that leaves out what a builder branches on. A hit must run
neither the emission loop nor the builder, and must reject a cost
table of the wrong length. Faulted runs of replayed programs, and
fault plans over activities that share one cost record, are checked
against fresh programs too.
"""

from __future__ import annotations

import dataclasses

import pytest

from program_helpers import algorithm_classes, image

from repro.algorithms import GeMMConfig, get_algorithm
from repro.algorithms.base import DistributedGeMM
from repro.comm.cost import CommCost
from repro.core.dataflow import Dataflow
from repro.core.gemm import GeMMShape
from repro.cli import run_experiment
from repro.faults.hard import HardFault
from repro.faults.plan import FaultPlan
from repro.mesh import Mesh2D
from repro.perf.cache import KILL_SWITCH_ENV, cache_stats, clear_caches
from repro.recovery.retry import RetryPolicy
from repro.sim.chip import ComputeCost
from repro.sim.engine import (
    LINK_H,
    LINK_V,
    Activity,
    Columns,
    Engine,
    SimulationError,
)
from repro.sim.program import (
    CostTable,
    Program,
    ProgramBuilder,
    Skeleton,
    shared_capacities,
)

ARTIFACTS = (
    "fig4", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "table2", "table3",
    "ablation-zoo", "ablation-faults", "ablation-unrolling",
    "ablation-logical-mesh",
)


@pytest.fixture(scope="module")
def artifact_builds():
    """Every ``(algorithm, build, cfg, hw, program)`` the artifacts
    make in one serial, cached session, plus its skeleton counters."""
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(KILL_SWITCH_ENV, raising=False)
        mp.setenv("REPRO_JOBS", "1")
        for cls in algorithm_classes():
            build = vars(cls).get("build_program")
            if build is None:
                continue

            def recording(self, cfg, hw, _build=build):
                program = _build(self, cfg, hw)
                builds.append((self, _build, cfg, hw, program))
                return program

            mp.setattr(cls, "build_program", recording)
        clear_caches()
        try:
            for name in ARTIFACTS:
                run_experiment(name)
            stats = cache_stats("program_skeleton")["program_skeleton"]
        finally:
            clear_caches()
    return builds, stats


def _replay_mismatches(builds):
    """The builds whose cached rebuild differs from the recorded one."""
    mismatched = []
    for algorithm, build, cfg, hw, program in builds:
        try:
            again = build(algorithm, cfg, hw)
        except SimulationError:
            mismatched.append((algorithm.name, cfg))
            continue
        if image(again) != image(program):
            mismatched.append((algorithm.name, cfg))
    return mismatched


class TestArtifactOracle:
    def test_every_build_equals_a_fresh_build(
        self, artifact_builds, monkeypatch
    ):
        builds, stats = artifact_builds
        assert len(builds) > 3000
        # Most builds replayed a skeleton.
        assert stats.hits > stats.misses > 0
        monkeypatch.setenv(KILL_SWITCH_ENV, "1")
        mismatched = [
            (algorithm.name, cfg)
            for algorithm, build, cfg, hw, program in builds
            if image(build(algorithm, cfg, hw)) != image(program)
        ]
        assert mismatched == []

    @pytest.mark.parametrize("name", ["wang", "1dtp"])
    def test_a_key_without_its_shape_branch_is_caught(
        self, artifact_builds, monkeypatch, name
    ):
        """Wang's decomposition and 1D TP's input/output choice follow
        the shape: the default key without them replays wrong DAGs."""
        builds = [b for b in artifact_builds[0] if b[0].name == name]
        assert builds
        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        clear_caches(("program_skeleton",))
        try:
            assert _replay_mismatches(builds) == []
            monkeypatch.setattr(
                type(builds[0][0]), "skeleton_key",
                DistributedGeMM.skeleton_key,
            )
            clear_caches(("program_skeleton",))
            assert _replay_mismatches(builds)
        finally:
            clear_caches(("program_skeleton",))


@pytest.fixture
def caching(monkeypatch):
    monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
    clear_caches()
    yield
    clear_caches()


def _replayed_and_fresh(name, cfg, other, hw, monkeypatch):
    """``cfg``'s program replayed from ``other``'s skeleton, and built
    fresh with caching off."""
    algorithm = get_algorithm(name)
    first = algorithm.build_program(other, hw)
    replayed = algorithm.build_program(cfg, hw)
    assert replayed.skeleton is first.skeleton is not None
    assert replayed.columns.labels is first.columns.labels
    monkeypatch.setenv(KILL_SWITCH_ENV, "1")
    fresh = algorithm.build_program(cfg, hw)
    monkeypatch.delenv(KILL_SWITCH_ENV)
    assert fresh.skeleton is None
    assert image(replayed) == image(fresh)
    assert replayed == fresh
    return replayed, fresh


_CONFIGS = [
    ("meshslice", Dataflow.OS, 4, False),
    ("meshslice", Dataflow.LS, 2, True),
    ("summa", Dataflow.RS, 4, False),
    ("wang", Dataflow.OS, 2, False),
    ("collective", Dataflow.LS, 1, False),
]


@pytest.mark.parametrize("name,dataflow,slices,abft", _CONFIGS)
def test_faulted_runs_of_a_replayed_program(
    caching, monkeypatch, hw, name, dataflow, slices, abft
):
    mesh = Mesh2D(4, 4)

    def cfg(m, n, k):
        return GeMMConfig(GeMMShape(m, n, k), mesh, dataflow, slices,
                          abft=abft, sdc_rate=1e-6 if abft else 0.0)

    replayed, fresh = _replayed_and_fresh(
        name, cfg(4096, 8192, 2048), cfg(2048, 4096, 1024), hw, monkeypatch
    )
    makespan = fresh.execute()[0].makespan
    plans = [
        FaultPlan(),
        FaultPlan(compute_slowdown=1.25, seed=1),
        FaultPlan(link_degradation=((LINK_H, 3.0),), launch_jitter=5e-6,
                  seed=2),
        FaultPlan(outage_rate=0.5, outage_penalty=1e-4, seed=3),
        FaultPlan(outage_rate=0.9, retry_policy=RetryPolicy(max_retries=0),
                  seed=4),
        FaultPlan(hard_faults=(HardFault(0.5 * makespan, LINK_V, "link"),)),
        FaultPlan(hard_faults=(HardFault(0.25 * makespan, "core", "chip"),),
                  compute_slowdown=1.5),
    ]
    failures = 0
    for plan in plans:
        spans, failure, _waits = replayed.execute(plan)
        fresh_spans, fresh_failure, _waits = fresh.execute(plan)
        assert spans == fresh_spans, plan
        assert [row[3].hex() for row in spans.rows] == [
            row[3].hex() for row in fresh_spans.rows
        ]
        assert failure == fresh_failure, plan
        failures += failure is not None
    assert failures >= 2


class TestCostRecords:
    def test_equal_costs_share_one_record(self, caching, hw):
        # Equal compute costs share a record through the gemm_cost memo.
        builder = ProgramBuilder(hw)
        builder.allgather("ag_a", 4, 1e6, LINK_H)
        builder.allgather("ag_b", 4, 1e6, LINK_V)
        builder.gemm("g0", 512, 512, 512)
        builder.gemm("g1", 512, 512, 512)
        cols = builder.build().columns
        for first, second in ((0, 1), (2, 3)):
            assert cols.shared[first] is cols.shared[second]
            assert cols.metas[first] is cols.metas[second]
        assert cols.shared[0]

    def test_a_plan_perturbing_one_sharer_leaves_the_other(self, hw):
        builder = ProgramBuilder(hw)
        builder.allgather("ag_a", 4, 1e6, LINK_H)
        builder.allgather("ag_b", 4, 1e6, LINK_V)
        program = builder.build()
        cols = program.columns
        record = (cols.durations[1], dict(cols.shared[1]), dict(cols.metas[1]))
        faulted = FaultPlan(link_degradation=((LINK_H, 3.0),)).apply(program)
        out = faulted.columns
        assert out.durations[0] > cols.durations[0]
        assert out.metas[0]["transfer"] > cols.metas[0]["transfer"]
        assert out.shared[0]["hbm"] < cols.shared[0]["hbm"]
        # The other sharer keeps the record, and the record is intact.
        assert (out.durations[1], out.shared[1], out.metas[1]) == record
        assert out.metas[1] is cols.metas[1]
        assert (cols.durations[0], cols.shared[0], cols.metas[0]) == record

    def test_interrupted_spans_copy_the_shared_meta(self, hw):
        builder = ProgramBuilder(hw)
        first = builder.gemm("g0", 2048, 2048, 2048)
        builder.gemm("g1", 2048, 2048, 2048, deps=[first])
        program = builder.build()
        half = program.columns.durations[0] / 2
        plan = FaultPlan(hard_faults=(HardFault(half, "core", "chip"),))
        _spans, failure, _waits = program.execute(plan)
        assert failure.in_flight[0].meta["interrupted"] is True
        assert all("interrupted" not in meta for meta in program.columns.metas)


class TestReplayingBuilder:
    """A build that hits a stored skeleton is its cost table scattered
    over the skeleton: no emission loop, no builder."""

    CFG = GeMMConfig(GeMMShape(2048, 4096, 1024), Mesh2D(4, 4), Dataflow.LS, 2)
    OTHER = dataclasses.replace(CFG, shape=GeMMShape(4096, 8192, 2048))

    def test_replay_takes_the_skeleton_columns(self, caching, monkeypatch, hw):
        algorithm = get_algorithm("meshslice")
        first = algorithm.build_program(self.CFG, hw)
        skeleton = first.skeleton

        def refuse(*args, **kwargs):
            raise AssertionError("a hit ran the emission loop")

        monkeypatch.setattr(type(algorithm), "emit", refuse)
        monkeypatch.setattr(ProgramBuilder, "__init__", refuse)
        hit = algorithm.build_program(self.OTHER, hw)
        assert hit.skeleton is skeleton
        for name in ("aids", "labels", "kinds", "exclusive", "deps"):
            assert getattr(hit.columns, name) is getattr(skeleton, name)
        assert hit.meta == {"algorithm": "meshslice", "config": self.OTHER}
        assert hit.columns.durations != first.columns.durations
        assert len(skeleton.cost_index) == len(skeleton.aids)
        assert skeleton.slots == len(algorithm.costs(self.OTHER, hw).records)

    def test_replay_rejects_a_table_of_another_length(
        self, caching, monkeypatch, hw
    ):
        algorithm = get_algorithm("meshslice")
        algorithm.build_program(self.CFG, hw)
        costs = type(algorithm).costs
        for resize in (
            lambda table: table.gemm("spare", 8, 8, 8),
            lambda table: table.records.pop(),
        ):
            def resized(self, cfg, hw, resize=resize):
                table = costs(self, cfg, hw)
                resize(table)
                return table

            monkeypatch.setattr(type(algorithm), "costs", resized)
            with pytest.raises(SimulationError, match="skeleton"):
                algorithm.build_program(self.OTHER, hw)

    @pytest.mark.parametrize("cached", [False, True])
    def test_negative_costs_keep_their_messages(
        self, caching, monkeypatch, hw, cached
    ):
        """A negative record names the first activity charging it: on a
        hit, on a miss and with caching off."""
        algorithm = get_algorithm("meshslice")
        costs = type(algorithm).costs
        if not cached:
            monkeypatch.setenv(KILL_SWITCH_ENV, "1")
        for problem in ("duration", "demand"):
            def negative(self, cfg, hw, problem=problem):
                table = costs(self, cfg, hw)
                slot = table.slots["ag_b"]
                duration, shared, meta = table.records[slot]
                if problem == "duration":
                    duration = -1.0
                else:
                    shared = {**shared, "hbm": -1.0}
                table.records[slot] = (duration, shared, meta)
                table.invalid.append(slot)
                return table

            monkeypatch.setattr(type(algorithm), "costs", negative)
            for cfg in (self.CFG, self.OTHER):
                with pytest.raises(
                    ValueError,
                    match=rf"activity 'ag_b\[0\]' has negative {problem}",
                ):
                    algorithm.build_program(cfg, hw)
            clear_caches(("program_skeleton",))

    def test_the_direct_vocabulary_keeps_its_messages(self, hw):
        negative = CommCost(launch=-1.0, transfer=0.0, sync=0.0,
                            hbm_bytes=0.0, syncs=0)
        builder = ProgramBuilder(hw)
        builder.gemm("fine", 256, 256, 256)
        builder.comm_on("bad", negative, (LINK_H,))
        builder.comm_on("worse", negative, (LINK_H,))
        with pytest.raises(ValueError, match="'bad' has negative duration"):
            builder.build()
        builder = ProgramBuilder(hw)
        builder.expected_compute("worse", ComputeCost(-1.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="'worse' has negative duration"):
            builder.build()

    def test_the_table_marks_negative_records(self, hw):
        table = CostTable(hw)
        table.gemm("g", 256, 256, 256)
        table.comm("bad", CommCost(launch=-1.0, transfer=0.0, sync=0.0,
                                   hbm_bytes=0.0, syncs=0))
        assert table.slots == {"g": 0, "bad": 1}
        assert table.invalid == [1]


class TestSkeletonStructure:
    def test_engine_reuses_the_skeleton_structure(self, hw):
        builder = ProgramBuilder(hw)
        ag = builder.allgather("ag", 4, 1e6, LINK_H)
        builder.gemm("g", 256, 256, 256, deps=[ag])
        skeleton = builder.skeleton()
        program = Program.from_columns(
            skeleton.columns(builder.table), shared_capacities(hw), {}, skeleton
        )
        with_skeleton = Engine(
            program.columns, program.shared_capacities, skeleton
        ).run()
        assert skeleton.structure() is skeleton.structure()
        assert with_skeleton == Engine(
            program.columns, program.shared_capacities
        ).run()

    def test_validation_messages_match(self):
        duplicate = Columns.of([
            Activity(0, "a", "compute", 1.0), Activity(0, "b", "compute", 1.0),
        ])
        dangling = Columns.of([Activity(0, "a", "compute", 1.0, deps=(7,))])
        for columns, message in (
            (duplicate, "duplicate activity ids"),
            (dangling, "'a' depends on unknown id 7"),
        ):
            skeleton = Skeleton(
                columns.aids, columns.labels, columns.kinds,
                columns.exclusive, columns.deps,
                tuple(range(len(columns.aids))), len(columns.aids),
            )
            for given in (None, skeleton):
                with pytest.raises(SimulationError, match=message):
                    Engine(columns, {}, given)

    def test_unbuilt_programs_carry_no_skeleton(self, hw):
        builder = ProgramBuilder(hw)
        builder.gemm("g", 256, 256, 256)
        program = builder.build()
        assert program.skeleton is None
        assert ProgramBuilder.extending(program, hw).build().skeleton is None
        assert Program(program.activities, {}).skeleton is None
