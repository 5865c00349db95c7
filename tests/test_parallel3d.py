"""Tests for the 3D (DP x PP x TP) cluster composition model."""

import pytest

from repro.experiments.ablation_3d import (
    CAMPAIGN,
    baseline_config,
    paper_style_ratios,
    same_cluster_config,
    scale_out_config,
    traffic_ratios,
)
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import GPT3_175B
from repro.parallel3d import (
    Parallel3DConfig,
    dp_allreduce_traffic_bytes,
    estimate_step,
    per_chip_weight_bytes,
)


def cfg(dp=4, pp=4, mesh=Mesh2D(4, 4), batch=256, micro=None):
    return Parallel3DConfig(
        model=GPT3_175B, dp=dp, pp=pp, tp_mesh=mesh,
        global_batch=batch, microbatches=micro,
    )


class TestConfig:
    def test_chips(self):
        assert cfg().chips == 4 * 4 * 16

    def test_layers_per_stage(self):
        assert cfg(pp=8).layers_per_stage == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(pp=7)  # 96 layers do not divide
        with pytest.raises(ValueError):
            cfg(dp=0)
        with pytest.raises(ValueError):
            cfg(dp=512, batch=256)

    def test_is_2d(self):
        assert cfg(mesh=Mesh2D(4, 4)).is_2d_tp
        assert not cfg(mesh=Mesh2D(1, 16)).is_2d_tp

    def test_microbatch_defaults_fill_pipeline(self):
        c = cfg(pp=8)
        assert c.num_microbatches >= c.pp

    def test_explicit_microbatches(self):
        assert cfg(micro=16).num_microbatches == 16


class TestWeightsAndTraffic:
    def test_weight_shard_shrinks_with_tp(self):
        w8 = per_chip_weight_bytes(cfg(mesh=Mesh2D(1, 8)))
        w128 = per_chip_weight_bytes(cfg(mesh=Mesh2D(16, 8)))
        assert w8 == pytest.approx(16 * w128)

    def test_weight_shard_grows_with_fewer_stages(self):
        w_pp8 = per_chip_weight_bytes(cfg(pp=8))
        w_pp2 = per_chip_weight_bytes(cfg(pp=2))
        assert w_pp2 == pytest.approx(4 * w_pp8)

    def test_dp1_no_traffic(self):
        assert dp_allreduce_traffic_bytes(cfg(dp=1, batch=256)) == 0.0

    def test_ring_allreduce_factor(self):
        c = cfg(dp=4)
        expected = 2 * 3 / 4 * per_chip_weight_bytes(c)
        assert dp_allreduce_traffic_bytes(c) == pytest.approx(expected)


class TestEstimateStep:
    def test_breakdown_consistency(self):
        step = estimate_step(cfg(), TPUV4)
        assert step.pipeline_seconds >= step.stage_seconds
        assert step.step_seconds >= step.pipeline_seconds
        assert 0 <= step.bubble_fraction < 1
        assert 0 < step.flop_utilization < 1

    def test_more_microbatches_fewer_bubbles(self):
        few = estimate_step(cfg(pp=8, micro=8), TPUV4)
        many = estimate_step(cfg(pp=8, micro=32), TPUV4)
        assert many.bubble_fraction < few.bubble_fraction

    def test_dp_overlap_bound_checked(self):
        with pytest.raises(ValueError):
            estimate_step(cfg(), TPUV4, dp_overlap_fraction=1.5)

    def test_algorithm_defaults(self):
        """1D rings default to the 1D TP algorithm, 2D to MeshSlice."""
        ring = estimate_step(cfg(mesh=Mesh2D(1, 16)), TPUV4)
        mesh = estimate_step(cfg(mesh=Mesh2D(4, 4)), TPUV4)
        assert ring.step_seconds > 0 and mesh.step_seconds > 0


class TestSection22Ablation:
    def test_paper_ratios_exact(self):
        """The intro's 16x and 64x DP-traffic reductions."""
        scale_out, same_cluster = paper_style_ratios()
        assert scale_out == pytest.approx(16.0)
        assert same_cluster == pytest.approx(64.0)

    def test_ring_accounting_scale_out_is_16x(self):
        rows = CAMPAIGN.run()
        scale_out, same_cluster = traffic_ratios(rows)
        assert scale_out == pytest.approx(16.0, rel=0.01)
        # The exact ring accounting gives a smaller same-cluster ratio
        # (pipeline staging grows the shard back); still a clear win.
        assert same_cluster > 3.0

    def test_configs_consistent(self):
        assert baseline_config().chips == same_cluster_config().chips
        assert scale_out_config().chips == 16 * baseline_config().chips

    def test_same_cluster_cuts_bubbles(self):
        rows = CAMPAIGN.run()
        by_label = {r.label: r for r in rows}
        assert (
            by_label["same-cluster 128-way 2D TP"].bubble_fraction
            < by_label["baseline 8-way 1D TP"].bubble_fraction
        )

    def test_same_cluster_utilization_competitive(self):
        rows = CAMPAIGN.run()
        by_label = {r.label: r for r in rows}
        base = by_label["baseline 8-way 1D TP"].utilization
        wide = by_label["same-cluster 128-way 2D TP"].utilization
        assert wide > 0.85 * base
