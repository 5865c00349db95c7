"""Bench: Figure 4 — algorithm timelines for one training GeMM."""

import pytest

from repro.experiments import fig04_timelines


@pytest.mark.repro("Figure 4")
def test_fig04_timelines(benchmark, show):
    rows = benchmark.pedantic(
        fig04_timelines.CAMPAIGN.run, rounds=1, iterations=1
    )
    order = fig04_timelines.ordering(rows)
    # MeshSlice attains the fastest execution (the Figure 4 takeaway).
    assert order[0] == "meshslice"
    # Collective beats SUMMA's sync-heavy broadcasts at this scale.
    assert order.index("collective") < order.index("summa")

    benchmark.extra_info["order"] = order
    show("Figure 4: timelines", fig04_timelines.render(rows))
