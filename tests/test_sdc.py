"""Tests for the silent-data-corruption injection layer."""

import dataclasses

import numpy as np
import pytest

from repro.core import meshslice_os
from repro.core.gemm import local_gemm
from repro.faults import (
    NULL_SDC_PLAN,
    SDC_OPS,
    SDCPlan,
    sdc_injection,
)
from repro.faults.sdc import MAX_BIT, corrupt_block, corrupt_shards
from repro.mesh import Mesh2D


class TestPlanValidation:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            SDCPlan(rate=-0.1)
        with pytest.raises(ValueError):
            SDCPlan(rate=1.1)
        SDCPlan(rate=0.0)
        SDCPlan(rate=1.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown SDC ops"):
            SDCPlan(rate=0.5, ops=("ag_col", "warp_drive"))

    def test_bit_bounds(self):
        with pytest.raises(ValueError):
            SDCPlan(rate=0.5, bit=-1)
        with pytest.raises(ValueError):
            SDCPlan(rate=0.5, bit=MAX_BIT + 1)  # the sign bit
        SDCPlan(rate=0.5, bit=MAX_BIT)

    def test_max_flips_non_negative(self):
        with pytest.raises(ValueError):
            SDCPlan(rate=0.5, max_flips=-1)

    def test_is_null(self):
        assert NULL_SDC_PLAN.is_null
        assert SDCPlan(rate=0.0).is_null
        assert SDCPlan(rate=0.5, ops=()).is_null
        assert SDCPlan(rate=0.5, max_flips=0).is_null
        assert not SDCPlan(rate=0.5).is_null

    def test_ensemble_consecutive_seeds(self):
        plans = SDCPlan(rate=0.5, seed=41).ensemble(3)
        assert [p.seed for p in plans] == [41, 42, 43]
        assert all(p.rate == 0.5 for p in plans)
        with pytest.raises(ValueError):
            SDCPlan(rate=0.5).ensemble(0)


@pytest.fixture
def operands():
    rng = np.random.default_rng(0)
    a = rng.integers(-4, 5, (16, 16)).astype(np.float64)
    b = rng.integers(-4, 5, (16, 16)).astype(np.float64)
    return a, b


class TestNullPlanContract:
    def test_null_plan_bit_identical(self, operands):
        a, b = operands
        baseline = meshslice_os(a, b, Mesh2D(2, 2), slices=2)
        for plan in (None, NULL_SDC_PLAN, SDCPlan(rate=0.5, max_flips=0)):
            with sdc_injection(plan) as injector:
                c = meshslice_os(a, b, Mesh2D(2, 2), slices=2)
            assert injector.flips == 0
            assert np.array_equal(c, baseline)

    def test_hooks_identity_outside_context(self, operands):
        a, _ = operands
        shards = {(0, 0): a}
        assert corrupt_shards("ag_col", shards) is shards
        assert corrupt_block("gemm", a) is a

    def test_null_context_consumes_no_randomness(self, operands):
        a, b = operands
        # Two plans with the same seed: a null context in between must
        # not advance any shared stream.
        plan = SDCPlan(rate=1.0, ops=("gemm",), max_flips=1, seed=3)
        with sdc_injection(plan) as first:
            local_gemm(a, b)
        with sdc_injection(NULL_SDC_PLAN):
            pass
        with sdc_injection(plan) as second:
            local_gemm(a, b)
        assert first.events == second.events


class TestInjection:
    def test_deterministic_across_contexts(self, operands):
        a, b = operands
        plan = SDCPlan(rate=0.3, seed=11)
        runs = []
        for _ in range(2):
            with sdc_injection(plan) as injector:
                c = meshslice_os(a, b, Mesh2D(2, 2), slices=2)
            runs.append((c, tuple(injector.events)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_rate_one_corrupts_result(self, operands):
        a, b = operands
        with sdc_injection(SDCPlan(rate=1.0, seed=1, bit=52)) as injector:
            c = meshslice_os(a, b, Mesh2D(2, 2), slices=2)
        assert injector.flips > 0
        assert not np.array_equal(c, a @ b)

    def test_ops_filtering(self, operands):
        a, b = operands
        plan = SDCPlan(rate=1.0, ops=("gemm",), seed=5)
        with sdc_injection(plan) as injector:
            meshslice_os(a, b, Mesh2D(2, 2), slices=2)
        assert injector.flips > 0
        assert all(e.op == "gemm" for e in injector.events)

    def test_max_flips_cap(self, operands):
        a, b = operands
        plan = SDCPlan(rate=1.0, seed=5, max_flips=3)
        with sdc_injection(plan) as injector:
            meshslice_os(a, b, Mesh2D(2, 2), slices=2)
        assert injector.flips == 3

    def test_forced_bit(self, operands):
        a, b = operands
        plan = SDCPlan(rate=1.0, seed=5, bit=40, max_flips=4)
        with sdc_injection(plan) as injector:
            meshslice_os(a, b, Mesh2D(2, 2), slices=2)
        assert injector.flips == 4
        assert all(e.bit == 40 for e in injector.events)

    def test_flip_records_before_after(self):
        arr = np.ones((4, 4))
        plan = SDCPlan(rate=1.0, seed=0, bit=52)
        with sdc_injection(plan) as injector:
            out = corrupt_block("gemm", arr)
        assert out is not arr
        assert np.array_equal(arr, np.ones((4, 4)))  # input untouched
        (event,) = injector.events
        assert event.before == 1.0
        assert event.after == out[event.index]
        assert event.after != 1.0

    def test_float64_only(self):
        plan = SDCPlan(rate=1.0, seed=0)
        with sdc_injection(plan):
            with pytest.raises(ValueError, match="float64"):
                corrupt_block("gemm", np.ones((2, 2), dtype=np.float32))

    def test_contexts_do_not_nest(self):
        plan = SDCPlan(rate=0.5, seed=0)
        with sdc_injection(plan):
            with pytest.raises(RuntimeError, match="nest"):
                with sdc_injection(plan):
                    pass

    def test_context_disarms_after_exception(self):
        plan = SDCPlan(rate=1.0, seed=0)
        with pytest.raises(RuntimeError, match="boom"):
            with sdc_injection(plan):
                raise RuntimeError("boom")
        arr = np.ones((2, 2))
        assert corrupt_block("gemm", arr) is arr

    def test_shards_visited_in_sorted_order(self):
        shards = {
            (1, 0): np.zeros((2, 2)),
            (0, 0): np.zeros((2, 2)),
            (0, 1): np.zeros((2, 2)),
        }
        plan = SDCPlan(rate=1.0, seed=9, max_flips=2)
        with sdc_injection(plan) as injector:
            corrupt_shards("ag_col", shards)
        assert [e.coord for e in injector.events] == [(0, 0), (0, 1)]

    def test_every_op_name_is_hookable(self, operands):
        # Each declared op can be targeted alone without validation
        # errors (the collectives exercised vary by algorithm).
        for op in SDC_OPS:
            plan = SDCPlan(rate=1.0, ops=(op,), seed=0, max_flips=1)
            assert not plan.is_null

    def test_metrics_counter(self, operands):
        from repro.obs.registry import registry

        a, b = operands
        before = registry().counter_value("sdc.flips", labels={"op": "gemm"})
        plan = SDCPlan(rate=1.0, ops=("gemm",), seed=5, max_flips=2)
        with sdc_injection(plan):
            meshslice_os(a, b, Mesh2D(2, 2), slices=2)
        after = registry().counter_value("sdc.flips", labels={"op": "gemm"})
        assert after == before + 2


class TestSeedConvention:
    def test_same_seed_same_flips_different_seed_differs(self, operands):
        a, b = operands

        def events(seed):
            with sdc_injection(SDCPlan(rate=0.5, seed=seed)) as injector:
                meshslice_os(a, b, Mesh2D(2, 2), slices=2)
            return tuple(injector.events)

        assert events(7) == events(7)
        assert events(7) != events(8)

    def test_ensemble_matches_reseeded_plans(self):
        base = SDCPlan(rate=0.25, seed=100)
        assert base.ensemble(4) == tuple(
            dataclasses.replace(base, seed=100 + i) for i in range(4)
        )
