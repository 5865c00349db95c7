"""Tests for autotuner Phase 2: mesh-shape x slice-count search."""

import pytest

from repro.autotuner import plan_model, tune_mesh, tune_model
from repro.hw import TPUV4
from repro.mesh import Mesh2D, mesh_shapes
from repro.models import GPT3_175B, MEGATRON_NLG_530B


class TestTuneMesh:
    def test_tunes_every_pass(self):
        plans = plan_model(GPT3_175B, GPT3_175B.tokens(128))
        tuned, total = tune_mesh(plans, Mesh2D(32, 8), TPUV4)
        assert len(tuned) == 12  # 4 layers x 3 passes
        assert total == pytest.approx(sum(t.estimate.total for t in tuned))

    def test_config_roundtrip(self):
        plans = plan_model(GPT3_175B, GPT3_175B.tokens(128))
        tuned, _ = tune_mesh(plans, Mesh2D(32, 8), TPUV4)
        cfg = tuned[0].config(Mesh2D(32, 8))
        assert cfg.slices == tuned[0].slices
        assert cfg.mesh == Mesh2D(32, 8)


class TestTune:
    def test_selects_minimum_over_meshes(self):
        result = tune_model(GPT3_175B, batch_size=128, chips=256, hw=TPUV4)
        assert result.per_mesh_seconds[result.mesh.shape] == pytest.approx(
            min(result.per_mesh_seconds.values())
        )

    def test_covers_all_candidate_shapes(self):
        result = tune_model(GPT3_175B, batch_size=128, chips=256, hw=TPUV4)
        expected = {m.shape for m in mesh_shapes(256, min_dim=2)}
        assert set(result.per_mesh_seconds) == expected

    def test_gpt3_picks_elongated_mesh(self):
        """The input matrix dwarfs the weights, so the tuner elongates
        the batch direction (the paper's 32x8-style shapes)."""
        result = tune_model(GPT3_175B, batch_size=128, chips=256, hw=TPUV4)
        assert result.mesh.rows > result.mesh.cols

    def test_slices_lookup(self):
        result = tune_model(GPT3_175B, batch_size=128, chips=64, hw=TPUV4)
        s = result.slices_for("qkv", "fwd")
        assert s >= 1
        with pytest.raises(KeyError):
            result.slices_for("qkv", "sideways")

    def test_explicit_candidates(self):
        result = tune_model(
            GPT3_175B, batch_size=8, chips=16, hw=TPUV4,
            mesh_candidates=[Mesh2D(4, 4)],
        )
        assert result.mesh == Mesh2D(4, 4)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            tune_model(GPT3_175B, batch_size=8, chips=16, hw=TPUV4, mesh_candidates=[])

    def test_deterministic(self):
        a = tune_model(MEGATRON_NLG_530B, batch_size=32, chips=64, hw=TPUV4)
        b = tune_model(MEGATRON_NLG_530B, batch_size=32, chips=64, hw=TPUV4)
        assert a.mesh == b.mesh
        assert a.block_seconds == pytest.approx(b.block_seconds)

    def test_runs_fast(self):
        """The paper: the autotuner finishes in seconds."""
        import time

        start = time.time()
        tune_model(GPT3_175B, batch_size=128, chips=256, hw=TPUV4)
        assert time.time() - start < 5.0

    def test_dataflow_optimization_never_hurts(self):
        optimized = tune_model(
            GPT3_175B, batch_size=128, chips=256, hw=TPUV4,
            optimize_dataflow=True,
        )
        default = tune_model(
            GPT3_175B, batch_size=128, chips=256, hw=TPUV4,
            optimize_dataflow=False,
        )
        assert optimized.block_seconds <= default.block_seconds * 1.001
