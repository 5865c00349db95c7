"""Bench: Figure 10 — communication-time breakdown at 256 chips."""

import pytest

from repro.experiments import fig10_comm_breakdown, render_table
from repro.models import GPT3_175B


@pytest.mark.repro("Figure 10")
def test_fig10_comm_breakdown(benchmark, show):
    rows = benchmark.pedantic(
        fig10_comm_breakdown.CAMPAIGN.run, rounds=1, iterations=1
    )
    by_key = {(r.model, r.algorithm): r for r in rows}

    gpt3 = lambda alg: by_key[(GPT3_175B.name, alg)]  # noqa: E731
    # Collective executes the fewest, largest collectives -> least
    # total communication time (Section 5.1.2).
    for other in ("summa", "wang", "meshslice", "1dtp", "fsdp"):
        if gpt3(other).total is not None:
            assert gpt3("collective").total <= gpt3(other).total, other
    # SUMMA's synchronization dominates its own breakdown.
    assert gpt3("summa").sync > gpt3("summa").launch
    assert gpt3("summa").sync > gpt3("collective").sync * 5
    # Wang pays launches for its many SendRecvs; MeshSlice pays syncs
    # for its many partial collectives.
    assert gpt3("wang").launch > gpt3("collective").launch
    assert gpt3("meshslice").sync > gpt3("collective").sync
    # 1D methods have by far the highest transfer cost.
    assert gpt3("1dtp").transfer > 3 * gpt3("collective").transfer

    benchmark.extra_info["gpt3_collective_total"] = round(gpt3("collective").total, 3)
    benchmark.extra_info["gpt3_meshslice_total"] = round(gpt3("meshslice").total, 3)
    show(
        "Figure 10: comm breakdown (relative to compute)",
        render_table(
            ["model", "algorithm", "launch", "transfer", "sync", "total"],
            [(r.model, r.algorithm, r.launch, r.transfer, r.sync, r.total)
             for r in rows],
        ),
    )
