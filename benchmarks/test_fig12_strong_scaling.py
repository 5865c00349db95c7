"""Bench: Figure 12 — strong-scaling FLOP utilization (batch 32)."""

import pytest

from repro.experiments import fig12_strong_scaling, render_table
from repro.models import GPT3_175B


@pytest.mark.repro("Figure 12")
def test_fig12_strong_scaling(benchmark, show):
    rows = benchmark.pedantic(
        fig12_strong_scaling.CAMPAIGN.run, rounds=1, iterations=1
    )

    # FSDP is absent by construction (cannot strong-scale).
    assert all(r.algorithm != "fsdp" for r in rows)

    utils = {
        (r.model, r.chips, r.algorithm): r.utilization
        for r in rows
        if r.utilization is not None
    }
    model = GPT3_175B.name
    # 16 chips is compute-bound: every 2D algorithm is decent there.
    for alg in ("meshslice", "collective", "wang"):
        assert utils[(model, 16, alg)] > 0.4
    # Utilization decays under strong scaling.
    for alg in ("meshslice", "collective"):
        assert utils[(model, 256, alg)] < utils[(model, 16, alg)]
    # MeshSlice stays ahead of SUMMA and 1D TP at 256 (Section 5.1.3).
    assert utils[(model, 256, "meshslice")] > utils[(model, 256, "summa")]
    assert utils[(model, 256, "meshslice")] > utils[(model, 256, "1dtp")]

    benchmark.extra_info["gpt3_meshslice_16"] = round(utils[(model, 16, "meshslice")], 3)
    benchmark.extra_info["gpt3_meshslice_256"] = round(utils[(model, 256, "meshslice")], 3)
    show(
        "Figure 12: strong scaling",
        render_table(
            ["model", "chips", "algorithm", "mesh", "util"],
            [(r.model, r.chips, r.algorithm, r.mesh, r.utilization) for r in rows],
        ),
    )
