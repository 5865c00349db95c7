"""Tests for the Section 6 extensions: inference, MoE, convolutions."""

import numpy as np
import pytest

from repro.core import GeMMShape
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import GPT3_175B
from repro.models.conv import (
    ConvLayer,
    conv2d_direct,
    conv2d_via_gemm,
    im2col,
)
from repro.models.inference import (
    InferenceWorkload,
    arithmetic_intensity,
    inference_gemms,
    is_memory_bound,
)
from repro.models.moe import (
    MoEConfig,
    alltoall_seconds,
    dispatch_bytes,
    expert_ffn_gemms,
    moe_block_flops,
)


class TestInference:
    def test_phase_rows(self):
        prefill = InferenceWorkload(GPT3_175B, batch=16, prompt_len=512,
                                    phase="prefill")
        decode = InferenceWorkload(GPT3_175B, batch=16, phase="decode")
        assert prefill.rows == 16 * 512
        assert decode.rows == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceWorkload(GPT3_175B, batch=0)
        with pytest.raises(ValueError):
            InferenceWorkload(GPT3_175B, batch=1, phase="train")

    def test_four_gemms_per_block(self):
        workload = InferenceWorkload(GPT3_175B, batch=8)
        gemms = inference_gemms(workload)
        assert [name for name, _ in gemms] == [
            "qkv", "attn_out", "ffn_in", "ffn_out",
        ]

    def test_decode_is_memory_bound_prefill_is_not(self):
        """The Section 6 roofline distinction."""
        decode = InferenceWorkload(GPT3_175B, batch=32, phase="decode")
        prefill = InferenceWorkload(GPT3_175B, batch=32, prompt_len=1024,
                                    phase="prefill")
        for _name, shape in inference_gemms(decode):
            assert is_memory_bound(shape, TPUV4)
        for _name, shape in inference_gemms(prefill):
            assert not is_memory_bound(shape, TPUV4)

    def test_intensity_grows_with_rows(self):
        thin = GeMMShape(8, 1024, 1024)
        fat = GeMMShape(8192, 1024, 1024)
        assert arithmetic_intensity(fat) > arithmetic_intensity(thin)


class TestInferenceAblation:
    def test_decode_prefers_coarse_slicing(self):
        from repro.experiments.ablation_inference import (
            CAMPAIGN,
            mean_tuned_slices,
            points,
        )

        rows = CAMPAIGN.run(points(chips=16, batch=8, prompt_len=256))
        assert mean_tuned_slices(rows, "decode") < mean_tuned_slices(
            rows, "prefill"
        )

    def test_meshslice_matches_collective_in_decode(self):
        from repro.experiments.ablation_inference import CAMPAIGN, points

        rows = CAMPAIGN.run(points(chips=16, batch=8, prompt_len=256,
                                   algorithms=("collective", "meshslice")))
        by_key = {(r.phase, r.layer, r.algorithm): r.latency_ms for r in rows}
        for layer in ("qkv", "attn_out", "ffn_in", "ffn_out"):
            ms = by_key[("decode", layer, "meshslice")]
            coll = by_key[("decode", layer, "collective")]
            assert ms <= coll * 1.02


class TestMoE:
    def test_expert_tokens(self):
        cfg = MoEConfig(GPT3_175B, num_experts=16, top_k=2,
                        capacity_factor=1.0)
        assert cfg.expert_tokens(1600) == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            MoEConfig(GPT3_175B, num_experts=0)
        with pytest.raises(ValueError):
            MoEConfig(GPT3_175B, num_experts=4, top_k=5)
        with pytest.raises(ValueError):
            MoEConfig(GPT3_175B, num_experts=4, capacity_factor=0.5)

    def test_expert_gemms_shapes(self):
        cfg = MoEConfig(GPT3_175B, num_experts=8, top_k=2)
        gemms = dict(expert_ffn_gemms(cfg, tokens=8192))
        rows = cfg.expert_tokens(8192)
        assert gemms["expert_ffn_in"].as_tuple() == (
            rows, GPT3_175B.ffn_dim, GPT3_175B.hidden
        )
        assert gemms["expert_ffn_out"].as_tuple() == (
            rows, GPT3_175B.hidden, GPT3_175B.ffn_dim
        )

    def test_dispatch_bytes(self):
        cfg = MoEConfig(GPT3_175B, num_experts=8, top_k=2)
        assert dispatch_bytes(cfg, tokens=1000) == pytest.approx(
            1000 * 2 * GPT3_175B.hidden * 2
        )

    def test_alltoall_free_for_single_group(self):
        assert alltoall_seconds(1e9, groups=1, chips=64, hw=TPUV4) == 0.0

    def test_alltoall_grows_with_groups(self):
        few = alltoall_seconds(1e9, groups=2, chips=64, hw=TPUV4)
        many = alltoall_seconds(1e9, groups=16, chips=64, hw=TPUV4)
        assert many > few

    def test_moe_flops_exceed_dense_ffn_for_topk2(self):
        """top-2 routing with capacity slack runs >2x the dense FFN."""
        cfg = MoEConfig(GPT3_175B, num_experts=16, top_k=2)
        tokens = 16384
        h, f = GPT3_175B.hidden, GPT3_175B.ffn_dim
        dense_ffn = 2 * (2.0 * tokens * h * f)
        moe = moe_block_flops(cfg, tokens)
        attention = 2.0 * tokens * h * 3 * h + 2.0 * tokens * h * h
        assert moe - attention > 2.0 * dense_ffn


class TestConv:
    def test_output_size(self):
        layer = ConvLayer(3, 8, kernel=3, stride=1, padding=1)
        assert layer.output_size(16, 16) == (16, 16)
        strided = ConvLayer(3, 8, kernel=3, stride=2)
        assert strided.output_size(9, 9) == (4, 4)

    def test_gemm_shape(self):
        layer = ConvLayer(16, 32, kernel=3, padding=1)
        shape = layer.gemm_shape(batch=4, height=8, width=8)
        assert shape.as_tuple() == (4 * 8 * 8, 32, 16 * 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvLayer(0, 8, 3)
        with pytest.raises(ValueError):
            ConvLayer(3, 8, 3, stride=0)
        with pytest.raises(ValueError):
            ConvLayer(3, 8, kernel=9).output_size(4, 4)

    def test_im2col_shape(self, rng):
        layer = ConvLayer(3, 8, kernel=3)
        x = rng.standard_normal((2, 3, 6, 6))
        patches = im2col(x, layer)
        assert patches.shape == (2 * 4 * 4, 3 * 9)

    def test_gemm_lowering_matches_direct(self, rng):
        layer = ConvLayer(3, 5, kernel=3, stride=2, padding=1)
        x = rng.standard_normal((2, 3, 9, 9))
        w = rng.standard_normal((5, 3, 3, 3))
        assert np.allclose(
            conv2d_via_gemm(x, w, layer), conv2d_direct(x, w, layer)
        )

    def test_distributed_conv_via_meshslice(self, rng):
        """Section 6: a convolution executed as a MeshSlice 2D GeMM."""
        from repro.core import meshslice_os

        layer = ConvLayer(4, 8, kernel=3, padding=1)
        x = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((8, 4, 3, 3))
        mesh = Mesh2D(2, 2)

        def distributed(a, b):
            return meshslice_os(a, b, mesh, slices=3, block=3)

        out = conv2d_via_gemm(x, w, layer, gemm=distributed)
        assert np.allclose(out, conv2d_direct(x, w, layer))

    def test_weights_shape_checked(self, rng):
        layer = ConvLayer(3, 5, kernel=3)
        with pytest.raises(ValueError):
            conv2d_via_gemm(
                rng.standard_normal((1, 3, 6, 6)),
                rng.standard_normal((5, 3, 2, 2)),
                layer,
            )
