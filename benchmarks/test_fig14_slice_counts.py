"""Bench: Figure 14 — cost model vs simulation across slice counts."""

import pytest

from repro.experiments import fig14_slice_counts, render_table
from repro.models import GPT3_175B, MEGATRON_NLG_530B


@pytest.mark.repro("Figure 14")
def test_fig14_slice_counts(benchmark, show):
    rows = benchmark.pedantic(
        fig14_slice_counts.CAMPAIGN.run, rounds=1, iterations=1
    )

    for model in (GPT3_175B.name, MEGATRON_NLG_530B.name):
        est, sim = fig14_slice_counts.optimal_slices(rows, model)
        # The cost model and the simulator agree on the optimal S.
        assert est == sim, model
        # The optimum is interior: slicing helps, but not unboundedly.
        assert est > 1

    # The S = 1 endpoint (Collective-like) is visibly worse than the
    # optimum — the overlap gain the slicing unlocks.
    for model in (GPT3_175B.name,):
        series = {
            r.slices: r.simulated_utilization
            for r in rows
            if r.model == model and r.simulated_utilization is not None
        }
        assert max(series.values()) > 1.1 * series[1]

    benchmark.extra_info["gpt3_optimal_s"] = fig14_slice_counts.optimal_slices(
        rows, GPT3_175B.name
    )[1]
    show(
        "Figure 14: slice counts (32x8 mesh)",
        render_table(
            ["model", "S", "estimated", "simulated"],
            [(r.model, r.slices, r.estimated_utilization,
              r.simulated_utilization) for r in rows],
        ),
    )
