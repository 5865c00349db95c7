"""Bit-exact equivalence of the engine vs the seed engine.

The event-driven engine (ready heap, per-resource wait queues,
incremental shared-demand totals) must schedule *exactly* like the seed
step-loop engine kept in ``tests/reference_engine.py`` — same spans,
same start/end floats to the last bit, same ordering. The corpus covers
the program families the evaluation actually simulates:

* MeshSlice with a deep slice count (S = 16) — long dependency chains
  with software pipelining across core and both link directions;
* SUMMA fully unrolled — broadcast/reduce pipelines per iteration;
* Cannon — SendRecv shifts with core-blocking fractions;
* a shared-NIC logical-mesh program — both ring directions contending
  for one NIC *and* for HBM bandwidth (the fluid-rate code paths);
* a no-overlap cloud preset — collectives claiming the core;
* randomized activity DAGs stressing wait queues and rate changes.
"""

from __future__ import annotations

import random

from reference_engine import ReferenceEngine

from repro.algorithms import GeMMConfig, get_algorithm
from repro.core import Dataflow, GeMMShape
from repro.hw import get_preset
from repro.mesh import Mesh2D
from repro.sim.engine import Activity, Engine

TPUV4 = get_preset("tpuv4-sim")
LOGICAL = get_preset("gpu-logical-mesh")
CLOUD = get_preset("tpuv4-cloud-4x4")


def _assert_same_spans(spans, ref_spans, tag):
    assert len(spans) == len(ref_spans), tag
    for new, ref in zip(spans, ref_spans):
        assert new.aid == ref.aid, (tag, new, ref)
        assert new.label == ref.label, (tag, new, ref)
        assert new.kind == ref.kind, (tag, new, ref)
        assert new.exclusive == ref.exclusive, (tag, new, ref)
        # Exact float equality: the engines must perform the same
        # floating-point operations in the same order.
        assert new.start == ref.start, (tag, new, ref)
        assert new.end == ref.end, (tag, new, ref)


def assert_bit_identical(program, tag):
    """The engine must emit the reference's Span list, floats compared exactly."""
    capacities = program.shared_capacities
    ref_spans = ReferenceEngine(program.activities, capacities).run()
    _assert_same_spans(
        Engine(program.activities, capacities).run(), ref_spans, (tag, "heap")
    )


SHAPE = GeMMShape(4096, 4096, 8192)


def test_meshslice_deep_slicing():
    cfg = GeMMConfig(shape=SHAPE, mesh=Mesh2D(4, 4), dataflow=Dataflow.OS, slices=16)
    program = get_algorithm("meshslice").build_program(cfg, TPUV4)
    assert_bit_identical(program, "meshslice-s16")


def test_meshslice_transposed_ls():
    cfg = GeMMConfig(
        shape=SHAPE, mesh=Mesh2D(2, 8), dataflow=Dataflow.LS,
        slices=8, transposed=True,
    )
    program = get_algorithm("meshslice").build_program(cfg, TPUV4)
    assert_bit_identical(program, "meshslice-ls-t")


def test_summa_unrolled():
    cfg = GeMMConfig(shape=SHAPE, mesh=Mesh2D(4, 4), dataflow=Dataflow.OS, slices=8)
    program = get_algorithm("summa").build_program(cfg, TPUV4)
    assert_bit_identical(program, "summa-unrolled")


def test_cannon():
    cfg = GeMMConfig(shape=SHAPE, mesh=Mesh2D(4, 4), dataflow=Dataflow.OS, slices=1)
    program = get_algorithm("cannon").build_program(cfg, TPUV4)
    assert_bit_identical(program, "cannon")


def test_wang():
    cfg = GeMMConfig(shape=SHAPE, mesh=Mesh2D(2, 8), dataflow=Dataflow.RS, slices=4)
    program = get_algorithm("wang").build_program(cfg, TPUV4)
    assert_bit_identical(program, "wang")


def test_shared_nic_logical_mesh_with_hbm_contention():
    """Both fluid-shared resources (NIC and HBM) active at once."""
    assert LOGICAL.has_shared_nic
    cfg = GeMMConfig(shape=SHAPE, mesh=Mesh2D(4, 4), dataflow=Dataflow.OS, slices=8)
    program = get_algorithm("meshslice").build_program(cfg, LOGICAL)
    # The corpus must actually exercise contention: some activity has to
    # carry demand on both shared resources.
    assert any(len(a.shared) >= 2 for a in program.activities)
    assert_bit_identical(program, "meshslice-logical-mesh")


def test_no_overlap_cloud_preset():
    """Collectives claiming the core (overlap_collectives=False)."""
    assert not CLOUD.overlap_collectives
    cfg = GeMMConfig(shape=SHAPE, mesh=Mesh2D(4, 4), dataflow=Dataflow.OS, slices=4)
    program = get_algorithm("meshslice").build_program(cfg, CLOUD)
    assert_bit_identical(program, "meshslice-no-overlap")


def test_step_granularity_collectives():
    """Per-ring-step collectives produce long same-link chains."""
    from repro.sim.program import ProgramBuilder
    from repro.sim.engine import LINK_H, LINK_V

    builder = ProgramBuilder(TPUV4)
    a = builder.allgather("ag_h", 4, 1e6, LINK_H, granularity="step")
    b = builder.allgather("ag_v", 8, 2e6, LINK_V, granularity="step")
    g = builder.gemm("partial", 1024, 1024, 1024, deps=[a, b])
    builder.reducescatter("rds", 4, 1e6, LINK_H, deps=[g], granularity="step")
    assert_bit_identical(builder.build(), "step-granularity")


class _FuzzCase:
    RESOURCES = ("core", "link_h", "link_v")

    @classmethod
    def build(cls, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 48)
        activities = []
        for aid in range(n):
            deps = ()
            if aid:
                deps = tuple(sorted(rng.sample(range(aid), rng.randint(0, min(3, aid)))))
            exclusive = tuple(rng.sample(cls.RESOURCES, rng.randint(0, 2)))
            shared = {}
            if rng.random() < 0.7:
                shared["hbm"] = rng.choice([0.0, 0.5, 1.0, 2.0, 5.0])
            if rng.random() < 0.3:
                shared["nic"] = rng.choice([0.5, 1.5])
            activities.append(
                Activity(
                    aid=aid,
                    label=f"a{aid}",
                    kind="compute",
                    duration=rng.choice([0.0, 1e-9, 0.25, 1.0, 3.7]),
                    exclusive=exclusive,
                    shared=shared,
                    deps=deps,
                )
            )
        return activities


def test_randomized_dags_bit_identical():
    capacities = {"hbm": 1.0, "nic": 1.0}
    for seed in range(120):
        activities = _FuzzCase.build(seed)
        ref_spans = ReferenceEngine(activities, capacities).run()
        ref_key = [(s.aid, s.start, s.end) for s in ref_spans]
        new_spans = Engine(activities, capacities).run()
        assert [
            (s.aid, s.start, s.end) for s in new_spans
        ] == ref_key, f"fuzz seed {seed}"


def test_randomized_repeated_fragments_bit_identical():
    """Random blocks stacked into deep programs.

    Each seed builds a random fragment, stacks it ``copies`` times with
    :func:`repeat_program`, and requires the engine to agree with the
    reference bit-for-bit across the layer-to-layer dependencies.
    """
    from program_helpers import repeat_program

    from repro.sim.program import Program

    capacities = {"hbm": 1.0, "nic": 1.0}
    for seed in range(40):
        rng = random.Random(1000 + seed)
        block = Program(
            activities=_FuzzCase.build(seed),
            shared_capacities=capacities,
        )
        copies = rng.choice([2, 3, 8, 24])
        stacked = repeat_program(block, copies)
        ref_spans = ReferenceEngine(
            stacked.activities, stacked.shared_capacities
        ).run()
        _assert_same_spans(
            Engine(stacked.activities, stacked.shared_capacities).run(),
            ref_spans,
            (f"stack seed {seed}", "heap"),
        )
