"""Tests for the memoization layer: counters, kill switch, registry."""

import pytest

from repro.algorithms import GeMMConfig
from repro.core.gemm import GeMMShape
from repro.mesh import Mesh2D
from repro.perf import (
    KILL_SWITCH_ENV,
    cache_stats,
    caching_enabled,
    clear_caches,
    memoize,
    simulated_pass,
)


@pytest.fixture
def cfg():
    return GeMMConfig(
        shape=GeMMShape(m=512, n=512, k=512),
        mesh=Mesh2D(2, 2),
        slices=2,
    )


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    # Start from caching-on even when the suite itself runs under
    # REPRO_NO_CACHE (the CI no-cache lane); each test opts back out.
    monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
    clear_caches()
    yield
    clear_caches()


def test_hit_and_miss_counters(cfg, hw):
    first = simulated_pass("meshslice", cfg, hw)
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert stats.misses == 1
    assert stats.hits == 0
    assert stats.entries == 1

    second = simulated_pass("meshslice", cfg, hw)
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert stats.misses == 1
    assert stats.hits == 1
    assert stats.entries == 1
    assert second is first  # cached object, not a re-simulation
    assert stats.calls == 2
    assert stats.hit_rate == 0.5


def test_kill_switch_disables_caching(cfg, hw, monkeypatch):
    monkeypatch.setenv(KILL_SWITCH_ENV, "1")
    assert not caching_enabled()

    first = simulated_pass("meshslice", cfg, hw)
    second = simulated_pass("meshslice", cfg, hw)
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert stats.hits == 0
    assert stats.misses == 0
    assert stats.entries == 0
    # Two independent simulations of the same configuration agree.
    assert second is not first
    assert second.makespan == first.makespan
    assert second.spans == first.spans


def test_kill_switch_is_per_call(cfg, hw, monkeypatch):
    cached = simulated_pass("meshslice", cfg, hw)
    monkeypatch.setenv(KILL_SWITCH_ENV, "true")
    assert not caching_enabled()
    bypassed = simulated_pass("meshslice", cfg, hw)
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert (stats.hits, stats.misses, stats.entries) == (0, 1, 1)
    assert bypassed is not cached

    monkeypatch.delenv(KILL_SWITCH_ENV)
    assert caching_enabled()
    again = simulated_pass("meshslice", cfg, hw)
    assert again is cached
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert (stats.hits, stats.misses) == (1, 1)


def test_kill_switch_falsy_values_keep_caching(cfg, hw, monkeypatch):
    for value in ("", "0", "no", "off", "false"):
        monkeypatch.setenv(KILL_SWITCH_ENV, value)
        assert caching_enabled(), value


def test_clear_caches_resets_counters(cfg, hw):
    simulated_pass("meshslice", cfg, hw)
    simulated_pass("meshslice", cfg, hw)
    clear_caches(("simulated_pass",))
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)


def test_pipeline_caches_are_registered():
    # Caches register at module import; pull in every layer first.
    import repro.autotuner.costmodel  # noqa: F401
    import repro.autotuner.dataflow  # noqa: F401
    import repro.perf.pipeline  # noqa: F401
    import repro.sim.chip  # noqa: F401

    names = cache_stats()
    for expected in (
        "gemm_cost",
        "meshslice_estimate",
        "best_slice_count",
        "plan_model",
        "built_program",
        "simulated_pass",
        "pass_lower_bound",
        "canonical_config",
        "program_skeleton",
    ):
        assert expected in names


def test_memoize_rejects_duplicate_names():
    with pytest.raises(ValueError, match="already registered"):
        memoize("simulated_pass")


def _same_cached_result(algorithm, hw, *cfgs):
    """All configs must share one cached ``SimResult`` object."""
    results = [simulated_pass(algorithm, c, hw) for c in cfgs]
    first = results[0]
    for result in results[1:]:
        assert result is first
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert stats.entries == 1
    assert stats.misses == 1
    assert stats.hits == len(cfgs) - 1


def test_canonical_wang_slices_clamp_to_ring(hw):
    import dataclasses

    base = GeMMConfig(
        shape=GeMMShape(m=4096, n=4096, k=8192),
        mesh=Mesh2D(4, 4),
        slices=4,  # == the decomposed ring length
    )
    _same_cached_result(
        "wang", hw, base,
        dataclasses.replace(base, slices=64),
        dataclasses.replace(base, slices=128),
    )


def test_canonical_1d_knob_insensitivity(hw):
    """1D TP and FSDP ignore dataflow and transposition entirely."""
    import dataclasses

    from repro.core.dataflow import Dataflow

    for algorithm in ("1dtp", "fsdp"):
        clear_caches()
        base = GeMMConfig(
            shape=GeMMShape(m=4096, n=1024, k=8192),
            mesh=Mesh2D(1, 8),
            slices=4,
        )
        _same_cached_result(
            algorithm, hw, base,
            dataclasses.replace(base, dataflow=Dataflow.LS),
            dataclasses.replace(base, dataflow=Dataflow.RS, transposed=True),
            dataclasses.replace(base, transposed=True),
        )


def test_canonical_cannon_ignores_slices_and_transposition(hw):
    import dataclasses

    base = GeMMConfig(
        shape=GeMMShape(m=4096, n=4096, k=8192),
        mesh=Mesh2D(4, 4),
        slices=1,
    )
    _same_cached_result(
        "cannon", hw, base,
        dataclasses.replace(base, slices=16),
        dataclasses.replace(base, transposed=True),
        dataclasses.replace(base, slices=8, transposed=True),
    )


def test_canonical_configs_build_bit_identical_programs(hw):
    """The canonical_config contract, enforced by column equality."""
    import random

    from repro.algorithms import algorithm_names, get_algorithm
    from repro.core.dataflow import Dataflow

    rng = random.Random(7)
    collapsed = 0
    for name in algorithm_names():
        alg = get_algorithm(name)
        for _trial in range(12):
            cfg = GeMMConfig(
                shape=GeMMShape(
                    m=rng.choice([1024, 4096]),
                    n=rng.choice([1024, 4096]),
                    k=rng.choice([2048, 8192]),
                ),
                mesh=rng.choice(
                    [Mesh2D(1, 8), Mesh2D(2, 8), Mesh2D(4, 4), Mesh2D(2, 2)]
                ),
                dataflow=rng.choice(list(Dataflow)),
                slices=rng.choice([1, 2, 4, 16, 64]),
                transposed=rng.random() < 0.5,
            )
            if not alg.supports(cfg):
                continue
            canonical = alg.canonical_config(cfg)
            assert alg.supports(canonical), (name, cfg)
            built = alg.build_program(cfg, hw)
            again = alg.build_program(canonical, hw)
            assert tuple(built.columns) == tuple(again.columns), (
                name, cfg, canonical
            )
            assert built.shared_capacities == again.shared_capacities
            if canonical != cfg:
                collapsed += 1
    # The sample must actually exercise non-identity collapses.
    assert collapsed >= 10


def test_fig9_cache_counts_pinned(hw, monkeypatch):
    """One serial fig. 9 sweep makes exactly this cache traffic: a
    canonical-key or skeleton-key change that loses (or fakes) sharing
    moves these counts."""
    from repro.experiments import fig09_weak_scaling

    monkeypatch.setenv("REPRO_JOBS", "1")
    fig09_weak_scaling.CAMPAIGN.run(fig09_weak_scaling.points())
    stats = cache_stats()
    skeletons = stats["program_skeleton"]
    passes = stats["simulated_pass"]
    assert (skeletons.hits, skeletons.misses) == (571, 678)
    assert (passes.hits, passes.misses) == (255, 727)


def test_session_hit_rate_regression(hw):
    """A sweep + re-render session stays above 50% simulated_pass hits.

    The canonicalized cache keys are what make the evaluation loops
    cheap: fig. 9 + fig. 10 + fig. 12 followed by a fig. 9 re-render
    measured ~0.60 when this test was pinned (0.38 before
    canonicalization). A drop below 0.5 means a cache-key regression.

    Precondition: the whole session runs in this one process
    (``jobs=1``), since the guarded keys are a property of one
    process's caches. A worker pool starts fresh
    caches per grid, so pooled, the same session reads about 0.31
    even with every worker's counts shipped home.
    """
    from repro.experiments import (
        fig09_weak_scaling,
        fig10_comm_breakdown,
        fig12_strong_scaling,
    )

    fig09_weak_scaling.CAMPAIGN.run(fig09_weak_scaling.points(), jobs=1)
    fig10_comm_breakdown.CAMPAIGN.run(fig10_comm_breakdown.points(), jobs=1)
    fig12_strong_scaling.CAMPAIGN.run(fig12_strong_scaling.points(), jobs=1)
    fig09_weak_scaling.CAMPAIGN.run(fig09_weak_scaling.points(), jobs=1)
    stats = cache_stats("simulated_pass")["simulated_pass"]
    assert stats.calls >= 2000
    assert stats.hit_rate >= 0.5, stats


@pytest.fixture
def throwaway_cache(monkeypatch):
    """Register test-only caches whose counters live in a private
    registry, so no ``cache.*`` series of theirs reaches the global one."""
    from repro.obs.registry import GLOBAL_REGISTRY, MetricsRegistry
    from repro.perf import cache

    private = MetricsRegistry()
    monkeypatch.setattr(cache, "registry", lambda: private)
    names = []

    def register(name):
        names.append(name)
        return memoize(name)

    yield register
    for name in names:
        cache._REGISTRY.pop(name, None)
    leaked = [
        rec for rec in GLOBAL_REGISTRY.snapshot()
        if dict(rec.labels).get("cache") in names
    ]
    assert not leaked


def test_memoize_unhashable_arguments_fall_through(throwaway_cache):
    calls = []

    @throwaway_cache("test_unhashable_fallback")
    def fn(x):
        calls.append(x)
        return len(calls)

    assert fn([1, 2]) == 1
    assert fn([1, 2]) == 2  # lists are unhashable: never cached
    stats = cache_stats("test_unhashable_fallback")["test_unhashable_fallback"]
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
    assert fn(7) == 3
    assert fn(7) == 3
    stats = cache_stats("test_unhashable_fallback")["test_unhashable_fallback"]
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)


def test_threaded_calls_all_counted(throwaway_cache):
    """Counter cells are bumped without a lock: 8 threads hammering one
    memoized function, switching as often as the interpreter allows,
    must still count every call exactly once."""
    import sys
    import threading

    @throwaway_cache("test_threaded_counts")
    def square(x):
        return x * x

    threads, per_thread = 8, 20_000
    start = threading.Barrier(threads)

    def hammer(offset):
        start.wait()
        for i in range(per_thread):
            square((offset + i) % 97)

    workers = [
        threading.Thread(target=hammer, args=(t,)) for t in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    stats = cache_stats("test_threaded_counts")["test_threaded_counts"]
    assert stats.calls == threads * per_thread
    assert stats.misses >= stats.entries == 97
