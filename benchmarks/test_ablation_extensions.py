"""Benches: the Section 2.2 / Section 6 extension ablations.

Beyond the paper's evaluation section, these regenerate the
quantitative claims of its introduction and discussion: the 3D-cluster
DP-traffic argument, MeshSlice on logical (GPU-style) meshes with NIC
contention, and inference-phase behaviour.
"""

import pytest

from repro.experiments import (
    ablation_3d,
    ablation_inference,
    ablation_logical_mesh,
    render_table,
)


@pytest.mark.repro("Section 2.2 (3D cluster composition)")
def test_ablation_3d(benchmark, show):
    rows = benchmark.pedantic(
        ablation_3d.CAMPAIGN.run, rounds=1, iterations=1
    )

    # The intro's arithmetic: 16x and 64x per-chip DP traffic cuts.
    p_scale_out, p_same_cluster = ablation_3d.paper_style_ratios()
    assert p_scale_out == pytest.approx(16.0)
    assert p_same_cluster == pytest.approx(64.0)
    # Exact ring accounting still shows large reductions.
    scale_out, same_cluster = ablation_3d.traffic_ratios(rows)
    assert scale_out == pytest.approx(16.0, rel=0.01)
    assert same_cluster > 3.0
    # Fewer pipeline stages -> fewer bubbles at the same cluster size.
    by_label = {r.label: r for r in rows}
    assert (
        by_label["same-cluster 128-way 2D TP"].bubble_fraction
        < by_label["baseline 8-way 1D TP"].bubble_fraction
    )

    benchmark.extra_info["paper_ratios"] = [16.0, 64.0]
    benchmark.extra_info["ring_accounting_ratios"] = [
        round(scale_out, 2), round(same_cluster, 2)
    ]
    show(
        "Section 2.2: 3D composition",
        render_table(
            ["configuration", "chips", "DP GB/chip", "bubble", "step (s)",
             "util"],
            [(r.label, r.chips, r.dp_traffic_gb, r.bubble_fraction,
              r.step_seconds, r.utilization) for r in rows],
        ),
    )


@pytest.mark.repro("Section 6 (logical mesh / GPU clusters)")
def test_ablation_logical_mesh(benchmark, show):
    rows = benchmark.pedantic(
        ablation_logical_mesh.CAMPAIGN.run,
        args=(["collective", "wang", "meshslice"],),
        rounds=1,
        iterations=1,
    )
    by_alg = {r.algorithm: r for r in rows}

    for row in rows:
        assert row.degradation is not None
        assert row.degradation >= -0.02
    # MeshSlice still wins on the logical mesh.
    assert (
        by_alg["meshslice"].logical_utilization
        > by_alg["wang"].logical_utilization
        > by_alg["collective"].logical_utilization
    )
    # The contention-aware cost model still finds the simulator's
    # optimal mesh shape (the paper's required autotuner modification).
    est, sim = ablation_logical_mesh.cost_model_agreement()
    assert est == sim

    benchmark.extra_info["meshslice_degradation"] = round(
        by_alg["meshslice"].degradation, 4
    )
    show(
        "Section 6: logical mesh",
        render_table(
            ["algorithm", "torus util", "logical util", "degradation"],
            [(r.algorithm, r.torus_utilization, r.logical_utilization,
              f"{r.degradation:.1%}") for r in rows],
        ),
    )


@pytest.mark.repro("Section 6 (inference)")
def test_ablation_inference(benchmark, show):
    rows = benchmark.pedantic(
        ablation_inference.CAMPAIGN.run, rounds=1, iterations=1
    )

    # Phase classification: decode memory-bound, prefill not.
    for row in rows:
        assert row.memory_bound == (row.phase == "decode")
    # The tuner backs slicing off for decode.
    prefill_s = ablation_inference.mean_tuned_slices(rows, "prefill")
    decode_s = ablation_inference.mean_tuned_slices(rows, "decode")
    assert decode_s < prefill_s
    # MeshSlice never loses to Collective in either phase.
    by_key = {(r.phase, r.layer, r.algorithm): r.latency_ms for r in rows}
    for phase in ("prefill", "decode"):
        for layer in ("qkv", "attn_out", "ffn_in", "ffn_out"):
            ms = by_key[(phase, layer, "meshslice")]
            coll = by_key[(phase, layer, "collective")]
            assert ms <= coll * 1.02, (phase, layer)

    benchmark.extra_info["mean_slices"] = {
        "prefill": round(prefill_s, 2), "decode": round(decode_s, 2)
    }
    show(
        "Section 6: inference phases",
        render_table(
            ["phase", "layer", "algorithm", "mem-bound", "S", "latency (ms)"],
            [(r.phase, r.layer, r.algorithm, r.memory_bound, r.tuned_slices,
              r.latency_ms) for r in rows],
        ),
    )


@pytest.mark.repro("Section 4.2 (loop unrolling)")
def test_ablation_unrolling(benchmark, show):
    from repro.experiments import ablation_unrolling

    rows = benchmark.pedantic(
        ablation_unrolling.CAMPAIGN.run, rounds=1, iterations=1
    )
    # SUMMA benefits greatly from the paper's unrolling; Wang modestly.
    assert ablation_unrolling.unrolling_speedup(rows, "summa") > 0.20
    assert ablation_unrolling.unrolling_speedup(rows, "wang") >= -0.01
    show(
        "Section 4.2: loop unrolling",
        render_table(
            ["algorithm", "variant", "iterations", "util", "time (ms)"],
            [(r.algorithm, r.variant, r.iterations, r.utilization,
              r.makespan_ms) for r in rows],
        ),
    )
