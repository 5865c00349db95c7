"""Bench: Figure 11 — the 16 distinct training GeMM shapes at 256 chips."""

import pytest

from repro.experiments import fig11_matrix_shapes, render_table


@pytest.mark.repro("Figure 11")
def test_fig11_matrix_shapes(benchmark, show):
    rows = benchmark.pedantic(
        fig11_matrix_shapes.CAMPAIGN.run, rounds=1, iterations=1
    )

    # 8 distinct shapes per model, 16 total (Section 5.1.4).
    labels = {(r.model, r.label) for r in rows}
    assert len(labels) == 16

    # MeshSlice is the fastest on every shape.
    by_shape = {}
    for r in rows:
        if r.utilization is not None:
            by_shape.setdefault((r.model, r.label), {})[r.algorithm] = r.utilization
    for key, utils in by_shape.items():
        assert max(utils, key=utils.get) == "meshslice", key

    vs_collective = fig11_matrix_shapes.average_speedup(
        rows, "meshslice", "collective"
    )
    vs_wang = fig11_matrix_shapes.average_speedup(rows, "meshslice", "wang")
    assert vs_collective > 0.10  # paper: +27.8%
    assert vs_wang > 0.03        # paper: +19.1%

    benchmark.extra_info["avg_speedup_vs_collective"] = round(vs_collective, 4)
    benchmark.extra_info["avg_speedup_vs_wang"] = round(vs_wang, 4)
    show(
        "Figure 11: per-shape utilization",
        render_table(
            ["model", "gemm", "(M,N,K)", "algorithm", "util"],
            [(r.model, r.label, str(r.shape), r.algorithm, r.utilization)
             for r in rows],
        ),
    )
