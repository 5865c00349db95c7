"""Bench: the fast-path pipeline — engine throughput and grid wall time.

Not a paper artifact: tracks the simulator's own performance so
regressions in the event-heap engine, the memoization layer, or the
mesh-search pruning are caught. Reference numbers (including the
pre-optimization baseline) live in ``benchmarks/BENCH_pipeline.json``.
"""

import time

import pytest

from repro.algorithms import GeMMConfig
from repro.core.gemm import GeMMShape
from repro.experiments import fig09_weak_scaling
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.perf import cache_stats, clear_caches
from repro.perf.pipeline import built_program
from repro.sim.engine import Engine


def _engine_corpus():
    """A mix of small and large per-pass programs, engine-input form."""
    corpus = []
    for algorithm, mesh, slices in (
        ("meshslice", Mesh2D(16, 16), 16),
        ("meshslice", Mesh2D(4, 4), 64),
        ("wang", Mesh2D(8, 8), 8),
        ("summa", Mesh2D(8, 8), 16),
        ("cannon", Mesh2D(8, 8), 1),
        ("collective", Mesh2D(16, 4), 1),
    ):
        cfg = GeMMConfig(
            shape=GeMMShape(m=4096, n=8192, k=4096),
            mesh=mesh,
            slices=slices,
        )
        program = built_program(algorithm, cfg, TPUV4)
        corpus.append((program.activities, program.shared_capacities))
    return corpus


@pytest.mark.repro("fast path")
def test_engine_throughput(benchmark):
    corpus = _engine_corpus()
    activities = sum(len(acts) for acts, _caps in corpus)

    def run_corpus():
        for acts, caps in corpus:
            Engine(acts, caps).run()

    benchmark.pedantic(run_corpus, rounds=5, iterations=1, warmup_rounds=1)
    per_run = benchmark.stats.stats.min
    benchmark.extra_info["programs"] = len(corpus)
    benchmark.extra_info["activities"] = activities
    benchmark.extra_info["activities_per_sec"] = round(activities / per_run)


@pytest.mark.repro("fast path")
def test_fig09_grid_wall_time(benchmark):
    def cold_grid():
        clear_caches()
        start = time.perf_counter()
        rows = fig09_weak_scaling.CAMPAIGN.run()
        elapsed = time.perf_counter() - start
        return rows, elapsed

    rows, elapsed = benchmark.pedantic(cold_grid, rounds=3, iterations=1)
    assert len(rows) == 70  # 2 models x 5 sizes x 7 algorithms

    stats = cache_stats()
    sim = stats["simulated_pass"]
    benchmark.extra_info["fig9_grid_seconds"] = round(elapsed, 3)
    benchmark.extra_info["simulated_pass_calls"] = sim.calls
    benchmark.extra_info["simulated_pass_hit_rate"] = round(sim.hit_rate, 3)
    benchmark.extra_info["unique_simulations"] = sim.entries
