"""Bench: Figure 13 — cost model vs simulation across mesh shapes."""

import pytest

from repro.experiments import fig13_mesh_shapes, render_table
from repro.models import GPT3_175B, MEGATRON_NLG_530B


@pytest.mark.repro("Figure 13")
def test_fig13_mesh_shapes(benchmark, show):
    rows = benchmark.pedantic(
        fig13_mesh_shapes.CAMPAIGN.run, rounds=1, iterations=1
    )

    for model in (GPT3_175B.name, MEGATRON_NLG_530B.name):
        est, sim = fig13_mesh_shapes.optimal_shapes(rows, model)
        # The whole point: the cost model identifies the optimal shape.
        assert est == sim, model

    # Mesh shape matters a lot: the paper reports up to 2.4x between
    # the best and worst shapes for GPT-3.
    gpt3 = [r.simulated_utilization for r in rows if r.model == GPT3_175B.name]
    spread = max(gpt3) / min(gpt3)
    assert spread > 1.4

    benchmark.extra_info["gpt3_shape_spread"] = round(spread, 3)
    benchmark.extra_info["paper_shape_spread"] = 2.4
    show(
        "Figure 13: mesh shapes",
        render_table(
            ["model", "mesh", "estimated", "simulated"],
            [(r.model, f"{r.mesh[0]}x{r.mesh[1]}",
              r.estimated_utilization, r.simulated_utilization) for r in rows],
        ),
    )
