"""Bench: Figure 9 — weak-scaling FLOP utilization, all algorithms.

Regenerates both charts (GPT-3 and Megatron-NLG, 16..256 chips, seven
algorithms) and the paper's headline end-to-end speedups.
"""

import pytest

from repro.experiments import fig09_weak_scaling
from repro.models import GPT3_175B, MEGATRON_NLG_530B


@pytest.mark.repro("Figure 9")
def test_fig09_weak_scaling(benchmark, show):
    rows = benchmark.pedantic(
        fig09_weak_scaling.CAMPAIGN.run, rounds=1, iterations=1
    )

    # MeshSlice is the fastest algorithm at every point it shares with
    # a competitor (Section 5.1.1).
    for model in (GPT3_175B.name, MEGATRON_NLG_530B.name):
        for chips in (16, 64, 256):
            utils = {
                r.algorithm: r.utilization
                for r in rows
                if r.model == model and r.chips == chips
                and r.utilization is not None
            }
            assert max(utils, key=utils.get) == "meshslice", (model, chips)

    gpt3_fc, gpt3_e2e = fig09_weak_scaling.speedup_over(rows, GPT3_175B.name, 256)
    mt_fc, mt_e2e = fig09_weak_scaling.speedup_over(
        rows, MEGATRON_NLG_530B.name, 256
    )
    assert gpt3_e2e > 0.05  # paper: +12.0%
    assert mt_e2e > 0.05    # paper: +23.4%

    benchmark.extra_info["gpt3_e2e_speedup_vs_wang"] = round(gpt3_e2e, 4)
    benchmark.extra_info["megatron_e2e_speedup_vs_wang"] = round(mt_e2e, 4)
    benchmark.extra_info["paper_gpt3"] = 0.120
    benchmark.extra_info["paper_megatron"] = 0.234

    from repro.experiments import render_table

    table = render_table(
        ["model", "chips", "algorithm", "mesh", "FLOP util"],
        [(r.model, r.chips, r.algorithm, r.mesh, r.utilization) for r in rows],
    )
    show(
        "Figure 9: weak scaling",
        table
        + f"\nGPT-3 e2e speedup over Wang: {gpt3_e2e:+.1%} (paper +12.0%)"
        + f"\nMegatron e2e speedup over Wang: {mt_e2e:+.1%} (paper +23.4%)",
    )
