"""Tests for the fault & variability injection subsystem."""

import dataclasses

import pytest

from repro.algorithms import GeMMConfig, get_algorithm
from repro.core import Dataflow, GeMMShape
from repro.faults import DEFAULT_RETRY_TIMEOUT, NULL_PLAN, FaultPlan, FaultSpec
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.sim import LINK_H, LINK_V, ProgramBuilder, simulate


def _program(hw=TPUV4):
    builder = ProgramBuilder(hw)
    ag = builder.allgather("ag", 4, 50e6, LINK_H)
    g = builder.gemm("g", 2048, 2048, 2048, deps=[ag])
    builder.reducescatter("rds", 4, 50e6, LINK_V, deps=[g])
    return builder.build()


def _pass_program(hw=TPUV4):
    cfg = GeMMConfig(
        GeMMShape(8192, 8192, 8192), Mesh2D(4, 4), Dataflow.OS, slices=4
    )
    return get_algorithm("meshslice").build_program(cfg, hw)


class TestFaultPlanValidation:
    def test_null_plan_is_null(self):
        assert NULL_PLAN.is_null
        assert FaultPlan().is_null

    def test_unit_factors_are_null(self):
        plan = FaultPlan(link_degradation=(("link_h", 1.0),))
        assert plan.is_null

    def test_rejects_speedups(self):
        with pytest.raises(ValueError):
            FaultPlan(compute_slowdown=0.9)
        with pytest.raises(ValueError):
            FaultPlan(link_degradation=(("link_h", 0.5),))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(outage_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(launch_jitter=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(outage_penalty=-1.0)

    def test_hashable(self):
        plan = FaultPlan(compute_slowdown=1.5, seed=3)
        assert hash(plan) == hash(FaultPlan(compute_slowdown=1.5, seed=3))


class TestNullPlanBitIdentical:
    def test_apply_returns_same_object(self):
        program = _program()
        assert NULL_PLAN.apply(program) is program

    def test_spans_bit_identical(self):
        """Pins the tentpole guarantee: null plan == unfaulted run."""
        program = _pass_program()
        clean = program.run()
        faulted = program.run(NULL_PLAN)
        assert clean == faulted

    def test_simulate_bit_identical(self):
        program = _program()
        clean = simulate(program, TPUV4)
        nulled = simulate(program, TPUV4, faults=NULL_PLAN)
        assert clean.makespan == nulled.makespan
        assert clean.spans == nulled.spans


class TestPerturbations:
    def test_compute_slowdown_stretches_compute_only(self):
        program = _program()
        plan = FaultPlan(compute_slowdown=2.0)
        faulted = plan.apply(program)
        assert faulted is not program
        for before, after in zip(program.activities, faulted.activities):
            if before.kind in ("compute", "slice") and before.duration > 0:
                assert after.duration == pytest.approx(2 * before.duration)
            else:
                assert after.duration == before.duration

    def test_link_degradation_hits_matching_direction(self):
        program = _program()
        plan = FaultPlan(link_degradation=((LINK_H, 3.0),))
        faulted = plan.apply(program)
        for before, after in zip(program.activities, faulted.activities):
            if before.kind != "comm":
                assert after.duration == before.duration
                continue
            transfer = before.meta.get("transfer", 0.0)
            if LINK_H in before.exclusive and transfer > 0:
                extra = after.duration - before.duration
                assert extra == pytest.approx(2 * transfer)
                assert after.meta["transfer"] == pytest.approx(3 * transfer)
            else:
                assert after.duration == before.duration

    def test_shared_demand_units_conserved(self):
        program = _program()
        plan = FaultPlan(compute_slowdown=2.0, link_degradation=((LINK_H, 2.0),))
        faulted = plan.apply(program)
        for before, after in zip(program.activities, faulted.activities):
            for resource, demand in before.shared.items():
                assert before.duration * demand == pytest.approx(
                    after.duration * after.shared[resource]
                )

    def test_outage_adds_sync_and_retransmit(self):
        program = _program()
        plan = FaultPlan(outage_rate=1.0, outage_penalty=1e-3, seed=5)
        faulted = plan.apply(program)
        retried = [
            (before, after)
            for before, after in zip(program.activities, faulted.activities)
            if after.meta.get("retries")
        ]
        assert retried
        for before, after in retried:
            transfer = before.meta.get("transfer", 0.0)
            sync = before.meta.get("sync", 0.0)
            assert after.meta["sync"] == pytest.approx(sync + 1e-3)
            assert after.meta["transfer"] == pytest.approx(2 * transfer)
            assert after.duration == pytest.approx(
                before.duration + 1e-3 + transfer
            )

    def test_jitter_deterministic_per_seed(self):
        program = _program()
        plan = FaultPlan(launch_jitter=5e-6, seed=11)
        a = plan.apply(program).run()
        b = plan.apply(program).run()
        assert a == b
        other = FaultPlan(launch_jitter=5e-6, seed=12).apply(program).run()
        assert a != other

    def test_input_program_never_mutated(self):
        program = _program()
        baseline = [
            (act.duration, dict(act.shared), dict(act.meta))
            for act in program.activities
        ]
        FaultPlan(
            compute_slowdown=2.0,
            link_degradation=((LINK_H, 2.0), (LINK_V, 1.5)),
            launch_jitter=1e-6,
            outage_rate=1.0,
            outage_penalty=1e-3,
        ).apply(program)
        for act, (duration, shared, meta) in zip(program.activities, baseline):
            assert act.duration == duration
            assert act.shared == shared
            assert act.meta == meta

    def test_faulted_makespan_grows(self):
        program = _pass_program()
        plan = FaultPlan(compute_slowdown=1.5, link_degradation=((LINK_H, 2.0),))
        clean = simulate(program, TPUV4)
        faulted = simulate(program, TPUV4, faults=plan)
        assert faulted.makespan > clean.makespan
        # FLOPs are unchanged, so utilization reports the degradation.
        assert faulted.flop_utilization() < clean.flop_utilization()

    def test_plan_recorded_in_program_meta(self):
        program = _program()
        plan = FaultPlan(compute_slowdown=2.0)
        assert plan.apply(program).meta["fault_plan"] is plan


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(stragglers=-1)
        with pytest.raises(ValueError):
            FaultSpec(straggler_slowdown=0.9)
        with pytest.raises(ValueError):
            FaultSpec(link_slowdown=0.5)
        with pytest.raises(ValueError):
            FaultSpec(outage_rate=2.0)

    def test_null_spec_samples_null_plans(self):
        spec = FaultSpec()
        assert spec.is_null
        plan = spec.sample(16)
        assert plan.is_null

    def test_sample_deterministic(self):
        spec = FaultSpec(
            stragglers=2, straggler_slowdown=2.0,
            degraded_links=3, link_slowdown=3.0, seed=9,
        )
        assert spec.sample(16) == spec.sample(16)
        assert spec.sample(16) != dataclasses.replace(spec, seed=10).sample(16)

    def test_sample_bounds(self):
        spec = FaultSpec(
            stragglers=4, straggler_slowdown=1.5,
            degraded_links=6, link_slowdown=2.0, seed=1,
        )
        plan = spec.sample(64)
        assert 1.0 <= plan.compute_slowdown < 1.5
        assert plan.link_degradation
        for link, factor in plan.link_degradation:
            assert link in ("link_h", "link_v")
            assert 1.0 <= factor < 2.0

    def test_outage_penalty_defaults(self):
        spec = FaultSpec(outage_rate=0.1)
        assert spec.sample(16).outage_penalty == DEFAULT_RETRY_TIMEOUT
        assert (
            spec.sample(16, TPUV4).outage_penalty == TPUV4.link_retry_timeout
        )
        explicit = FaultSpec(outage_rate=0.1, outage_penalty=2e-3)
        assert explicit.sample(16, TPUV4).outage_penalty == 2e-3

    def test_ensemble_reproducible_and_distinct(self):
        spec = FaultSpec(stragglers=2, straggler_slowdown=2.0, seed=4)
        plans = spec.ensemble(16, TPUV4, count=5)
        assert plans == spec.ensemble(16, TPUV4, count=5)
        assert len(plans) == 5
        assert len({p.compute_slowdown for p in plans}) > 1

    def test_ensemble_rejects_empty(self):
        with pytest.raises(ValueError):
            FaultSpec().ensemble(16, count=0)

    def test_sample_rejects_no_chips(self):
        with pytest.raises(ValueError):
            FaultSpec().sample(0)


class TestFaultedPassCache:
    def test_null_plan_shares_clean_cache_entry(self, hw, monkeypatch):
        from repro.perf.pipeline import faulted_pass, simulated_pass

        # Only a cache returns the same object: caching must be on.
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = GeMMConfig(
            GeMMShape(4096, 4096, 4096), Mesh2D(2, 2), Dataflow.OS, slices=2
        )
        clean = simulated_pass("meshslice", cfg, hw)
        assert faulted_pass("meshslice", cfg, hw, NULL_PLAN) is clean

    def test_faulted_result_memoized(self, hw, monkeypatch):
        from repro.perf.pipeline import faulted_pass

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = GeMMConfig(
            GeMMShape(4096, 4096, 4096), Mesh2D(2, 2), Dataflow.OS, slices=2
        )
        plan = FaultPlan(compute_slowdown=1.5, seed=2)
        first = faulted_pass("meshslice", cfg, hw, plan)
        assert faulted_pass("meshslice", cfg, hw, plan) is first
        assert first.makespan > faulted_pass(
            "meshslice", cfg, hw, NULL_PLAN
        ).makespan


class TestRetryTimeoutSingleSource:
    def test_default_derived_from_hardware_params(self):
        from repro.hw.params import HardwareParams

        assert DEFAULT_RETRY_TIMEOUT == HardwareParams().link_retry_timeout


class TestHardFaults:
    def test_constructors_and_validation(self):
        from repro.faults import chip_down, link_down

        fault = chip_down(1e-3)
        assert (fault.time, fault.resource, fault.kind) == (1e-3, "core", "chip")
        fault = link_down(2e-3, LINK_V)
        assert (fault.time, fault.resource, fault.kind) == (2e-3, LINK_V, "link")
        with pytest.raises(ValueError):
            chip_down(-1.0)
        with pytest.raises(ValueError):
            link_down(1e-3, "nic")

    def test_earliest_resolves_ties_to_first_listed(self):
        from repro.faults import chip_down, earliest, link_down

        a, b = link_down(1e-3), chip_down(1e-3)
        assert earliest((a, b)) is a
        assert earliest((b, chip_down(5e-4))).time == 5e-4
        with pytest.raises(ValueError):
            earliest(())

    def test_hard_fault_plan_is_not_null_but_rewrites_nothing(self):
        from repro.faults import chip_down

        plan = FaultPlan(hard_faults=(chip_down(1e-3),))
        assert not plan.is_null
        program = _program()
        assert plan.apply(program) is program

    def test_simulate_surfaces_structured_failure(self):
        from repro.faults import chip_down

        program = _program()
        clean = simulate(program, TPUV4)
        when = clean.makespan / 2
        res = simulate(
            program, TPUV4, faults=FaultPlan(hard_faults=(chip_down(when),))
        )
        assert res.failure is not None
        assert not res.completed
        assert res.failure.time == when
        assert res.failure.resource == "core"
        assert res.failure.kind == "chip"
        assert res.makespan == when
        assert res.flop_utilization() == 0.0
        # The truncated trace never extends past the failure instant.
        for span in res.spans:
            assert span.end <= when + 1e-18
        for span in res.failure.in_flight:
            assert span.end == when
            assert span.meta.get("interrupted") is True
        assert res.failure.total == len(program.activities)

    def test_fault_after_makespan_never_fires(self):
        from repro.faults import chip_down

        program = _program()
        clean = simulate(program, TPUV4)
        res = simulate(
            program,
            TPUV4,
            faults=FaultPlan(hard_faults=(chip_down(clean.makespan * 10),)),
        )
        assert res.failure is None
        assert res.spans == clean.spans

    def test_program_run_raises_on_failure(self):
        from repro.faults import chip_down
        from repro.sim import SimulationError

        program = _program()
        with pytest.raises(SimulationError, match="chip fault"):
            program.run(FaultPlan(hard_faults=(chip_down(1e-9),)))

    def test_earliest_of_many_fires(self):
        from repro.faults import chip_down, link_down

        program = _program()
        plan = FaultPlan(hard_faults=(link_down(5e-3), chip_down(1e-9)))
        res = simulate(program, TPUV4, faults=plan)
        assert res.failure.resource == "core"
        assert res.failure.time == 1e-9

    def test_spec_carries_hard_faults(self):
        from repro.faults import chip_down

        spec = FaultSpec(hard_faults=(chip_down(1e-3),))
        assert not spec.is_null
        plan = spec.sample(16, TPUV4)
        assert plan.hard_faults == spec.hard_faults
        assert not plan.is_null


class TestRetryPolicyPlans:
    def test_policy_validation(self):
        from repro.recovery import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=1.0, max_backoff=0.5)

    def test_backoff_truncated_exponential(self):
        from repro.recovery import RetryPolicy

        policy = RetryPolicy(
            max_retries=4, base_backoff=1e-3, backoff_factor=2.0,
            max_backoff=3e-3,
        )
        assert policy.backoff(0) == 1e-3
        assert policy.backoff(1) == 2e-3
        assert policy.backoff(2) == 3e-3  # truncated
        assert policy.backoff(3) == 3e-3
        assert policy.total_backoff() == pytest.approx(9e-3)

    def test_guaranteed_exhaustion_marks_and_kills(self):
        from repro.recovery import RetryPolicy

        policy = RetryPolicy(max_retries=2, base_backoff=1e-4)
        plan = FaultPlan(outage_rate=1.0, retry_policy=policy, seed=3)
        program = _program()
        faulted = plan.apply(program)
        marked = [
            act for act in faulted.activities
            if act.meta.get("failed_resource")
        ]
        assert marked
        for act in marked:
            assert act.meta["failed_resource"] in (LINK_H, LINK_V)
            assert act.meta["retries"] >= 2
        spans, failure, _waits = program.execute(plan)
        assert failure is not None
        assert failure.kind == "link"
        assert failure.resource in (LINK_H, LINK_V)

    def test_successful_retries_charge_backoff_and_retransmits(self):
        import random as random_module

        from repro.recovery import RetryPolicy

        policy = RetryPolicy(max_retries=64, base_backoff=1e-4)
        rate = 0.4
        plan = FaultPlan(outage_rate=rate, retry_policy=policy, seed=7)
        program = _program()
        faulted = plan.apply(program)
        # Replay the plan's stream to predict each episode exactly.
        rng = random_module.Random(plan.seed)
        for before, after in zip(program.activities, faulted.activities):
            transfer = float(before.meta.get("transfer", 0.0))
            if before.kind != "comm" or transfer <= 0.0:
                continue
            if rng.random() < rate:
                episode = policy.episode(rng, transfer, rate)
                assert not episode.exhausted
                assert after.meta["retries"] == episode.attempts
                assert after.duration == pytest.approx(
                    before.duration + episode.delay_seconds
                )
            else:
                assert after.duration == before.duration

    def test_retry_policy_spans_deterministic(self):
        from repro.recovery import RetryPolicy

        plan = FaultPlan(
            outage_rate=0.5, retry_policy=RetryPolicy(), seed=13
        )
        program = _program()
        assert program.execute(plan) == program.execute(plan)


def _random_program(seed, hw=TPUV4):
    """A random small activity DAG exercising every builder vocabulary."""
    import random as random_module

    rng = random_module.Random(seed)
    builder = ProgramBuilder(hw)
    ids = []
    for i in range(rng.randint(4, 12)):
        deps = rng.sample(ids, min(len(ids), rng.randint(0, 2)))
        op = rng.choice(("gemm", "ag", "rds", "sendrecv", "slice"))
        link = rng.choice((LINK_H, LINK_V))
        if op == "gemm":
            dim = rng.choice((512, 1024, 2048))
            ids.append(builder.gemm(f"g{i}", dim, dim, dim, deps=deps))
        elif op == "ag":
            ids.append(
                builder.allgather(f"ag{i}", 4, rng.uniform(1e6, 80e6), link, deps=deps)
            )
        elif op == "rds":
            ids.append(
                builder.reducescatter(f"rds{i}", 4, rng.uniform(1e6, 80e6), link, deps=deps)
            )
        elif op == "sendrecv":
            ids.append(
                builder.sendrecv(f"sr{i}", rng.uniform(1e6, 40e6), link, deps=deps)
            )
        else:
            ids.append(
                builder.slice_copy(f"s{i}", rng.uniform(1e5, 8e6), deps=deps)
            )
    return builder.build()


#: Hardware with effectively uncontended shared resources. Fault
#: stretches conserve an activity's *total* HBM units (same bytes over
#: a longer window), so when shared capacity binds, a stretched
#: activity's reduced demand rate can genuinely relieve contention for
#: concurrent work — the fluid model's honest answer, but it caps how
#: strong a monotonicity guarantee can be. With shared resources
#: uncontended the guarantee is exact, and these property tests pin it.
_UNCONTENDED = dataclasses.replace(TPUV4, hbm_bandwidth=1e21)


class TestFaultMonotonicity:
    """Property tests: injected time is never below clean, and more
    severe plans never finish faster. Fixed plan seeds keep the jitter/
    outage draw positions aligned across severities, so flat-penalty
    scaling perturbs every activity pointwise-monotonically."""

    SEEDS = range(12)

    def test_injected_never_below_clean(self):
        for seed in self.SEEDS:
            program = _random_program(seed, _UNCONTENDED)
            clean = simulate(program, _UNCONTENDED).makespan
            plan = FaultPlan(
                compute_slowdown=1.0 + 0.1 * (seed + 1),
                link_degradation=((LINK_H, 1.5),),
                launch_jitter=2e-6,
                outage_rate=0.3,
                outage_penalty=5e-4,
                seed=seed,
            )
            faulted = simulate(program, _UNCONTENDED, faults=plan).makespan
            assert faulted >= clean

    def test_severity_monotone(self):
        for seed in self.SEEDS:
            program = _random_program(seed, _UNCONTENDED)
            previous = simulate(program, _UNCONTENDED).makespan
            for slowdown in (1.1, 1.5, 2.0, 3.0):
                plan = FaultPlan(compute_slowdown=slowdown, seed=seed)
                current = simulate(
                    program, _UNCONTENDED, faults=plan
                ).makespan
                # 1e-15: last-ulp arithmetic noise on untouched paths.
                assert current >= previous - 1e-15
                previous = current

    def test_outage_rate_monotone(self):
        for seed in self.SEEDS:
            program = _random_program(seed, _UNCONTENDED)
            previous = simulate(program, _UNCONTENDED).makespan
            for rate in (0.1, 0.3, 0.6, 1.0):
                plan = FaultPlan(
                    outage_rate=rate, outage_penalty=5e-4, seed=seed
                )
                current = simulate(
                    program, _UNCONTENDED, faults=plan
                ).makespan
                # 1e-15: last-ulp arithmetic noise on untouched paths.
                assert current >= previous - 1e-15
                previous = current

    def test_outage_rate_monotone_under_contention(self):
        """Outage retransmissions charge their full extra traffic (the
        demand rate never dips below nominal), so this one stays
        monotone even with HBM/NIC contention live."""
        for seed in self.SEEDS:
            program = _random_program(seed)
            previous = simulate(program, TPUV4).makespan
            for rate in (0.1, 0.3, 0.6, 1.0):
                plan = FaultPlan(
                    outage_rate=rate, outage_penalty=5e-4, seed=seed
                )
                current = simulate(program, TPUV4, faults=plan).makespan
                assert current >= previous - 1e-15
                previous = current
