"""Bench: Section 7 — 2.5D GeMM vs MeshSlice+DP per-chip traffic."""

import pytest

from repro.experiments import ablation_25d, render_table


@pytest.mark.repro("Section 7 traffic comparison")
def test_ablation_25d(benchmark, show):
    rows = benchmark.pedantic(
        ablation_25d.traffic_rows, rounds=1, iterations=1
    )
    by_method = {r.method: r for r in rows}

    two5d = by_method["2.5D GeMM"]
    ms = by_method["MeshSlice+DP"]
    # Paper: 16x16x4 forced by the square-base constraint, 1.6 GB.
    assert two5d.topology == "16x16x4"
    assert two5d.per_chip_traffic_gb == pytest.approx(1.6, rel=0.10)
    # Paper: MeshSlice+DP picks 32x8x4 and moves only ~336 MB.
    assert ms.topology == "32x8x4"
    assert ms.per_chip_traffic_gb == pytest.approx(0.336, rel=0.10)
    assert two5d.per_chip_traffic_gb / ms.per_chip_traffic_gb > 4.0

    benchmark.extra_info["traffic_ratio"] = round(
        two5d.per_chip_traffic_gb / ms.per_chip_traffic_gb, 2
    )
    show(
        "Section 7: 2.5D vs MeshSlice+DP",
        render_table(
            ["method", "topology", "per-chip traffic (GB)"],
            [(r.method, r.topology, r.per_chip_traffic_gb) for r in rows],
        ),
    )
