"""Tests for ABFT checksums: encode, verify, correct, and timed overhead."""

import dataclasses

import numpy as np
import pytest

from repro.abft import (
    abft_gemm,
    augment_a,
    augment_b,
    augmented_product,
    residuals,
    strip,
    verify_block,
)
from repro.algorithms import get_algorithm
from repro.algorithms.base import (
    GeMMConfig,
    abft_payload_factor,
    abft_protected_ops,
)
from repro.core import Dataflow, GeMMShape
from repro.faults import SDCPlan
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.sim.chip import checksum_cost
from repro.sim.engine import makespan

ALGORITHMS = ("meshslice", "summa", "collective")


def _ints(rng, shape):
    return rng.integers(-4, 5, shape).astype(np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestChecksums:
    def test_augment_shapes(self, rng):
        a = _ints(rng, (4, 6))
        b = _ints(rng, (6, 5))
        assert augment_a(a).shape == (5, 6)
        assert augment_b(b).shape == (6, 6)
        assert np.array_equal(augment_a(a)[-1, :], a.sum(axis=0))
        assert np.array_equal(augment_b(b)[:, -1], b.sum(axis=1))

    def test_augment_rejects_non_2d(self):
        with pytest.raises(ValueError):
            augment_a(np.zeros(3))
        with pytest.raises(ValueError):
            augment_b(np.zeros((2, 2, 2)))

    def test_product_carries_checksums(self, rng):
        a = _ints(rng, (4, 6))
        b = _ints(rng, (6, 5))
        c_aug = augment_a(a) @ augment_b(b)
        assert np.array_equal(c_aug, augmented_product(a @ b))
        row_res, col_res, corner_res = residuals(c_aug)
        assert not row_res.any() and not col_res.any() and corner_res == 0.0

    def test_strip_roundtrip(self, rng):
        c = _ints(rng, (3, 4))
        assert np.array_equal(strip(augmented_product(c)), c)


class TestVerifyBlock:
    def _clean_block(self, rng, shape=(4, 5)):
        return augmented_product(_ints(rng, shape))

    def test_clean(self, rng):
        verdict = verify_block(self._clean_block(rng))
        assert verdict.status == "clean"

    def test_single_data_flip_corrected(self, rng):
        c_aug = self._clean_block(rng)
        truth = c_aug.copy()
        c_aug[1, 2] += 8.0
        verdict = verify_block(c_aug)
        assert verdict.status == "corrected"
        assert verdict.location == (1, 2)
        assert np.array_equal(c_aug, truth)

    def test_nan_flip_reconstructed(self, rng):
        c_aug = self._clean_block(rng)
        truth = c_aug.copy()
        c_aug[0, 0] = np.nan
        verdict = verify_block(c_aug)
        assert verdict.status == "corrected"
        assert np.array_equal(c_aug, truth)

    def test_checksum_entry_repaired(self, rng):
        c_aug = self._clean_block(rng)
        truth = c_aug.copy()
        c_aug[2, -1] += 16.0  # checksum column entry
        verdict = verify_block(c_aug)
        assert verdict.status == "checksum_repaired"
        assert np.array_equal(c_aug, truth)
        c_aug[-1, 1] += 4.0  # checksum row entry
        assert verify_block(c_aug).status == "checksum_repaired"
        assert np.array_equal(c_aug, truth)

    def test_corner_repaired(self, rng):
        c_aug = self._clean_block(rng)
        truth = c_aug.copy()
        c_aug[-1, -1] += 2.0
        assert verify_block(c_aug).status == "checksum_repaired"
        assert np.array_equal(c_aug, truth)

    def test_dirty_corner_gates_checksum_repair(self, rng):
        # One bad column + clean rows + dirty corner means the *data*
        # is corrupted consistently with its row checksums (an operand
        # flip), not the checksum row: repairing the checksum would
        # certify a wrong block. Must be uncorrectable instead.
        a = _ints(rng, (4, 6))
        b = _ints(rng, (6, 5))
        b[3, :] = 0.0
        b[3, 2] = 1.0  # A's column 3 maps into C column 2 only
        a_aug = augment_a(a)
        a_aug[1, 3] += 32.0  # post-encode operand flip (e.g. in an AG)
        c_aug = a_aug @ augment_b(b)
        verdict = verify_block(c_aug)
        assert verdict.bad_cols == (2,)
        assert not verdict.bad_rows
        assert verdict.corner_bad
        assert verdict.status == "uncorrectable"

    def test_multi_error_uncorrectable_and_untouched(self, rng):
        c_aug = self._clean_block(rng)
        snapshot = c_aug.copy()
        c_aug[0, 0] += 1.0
        c_aug[2, 3] += 1.0
        corrupted = c_aug.copy()
        verdict = verify_block(c_aug)
        assert verdict.status == "uncorrectable"
        assert np.array_equal(c_aug, corrupted)  # rolled back, not mangled
        assert not np.array_equal(c_aug, snapshot)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_block(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            verify_block(np.zeros((3, 3)), tol=-1.0)


class TestProtectedGeMM:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_clean_bit_exact(self, rng, algorithm):
        a, b = _ints(rng, (16, 16)), _ints(rng, (16, 16))
        c, report = abft_gemm(
            a, b, Mesh2D(2, 2), algorithm=algorithm, slices=2
        )
        assert np.array_equal(c, a @ b)
        assert report.blocks == 4
        assert report.clean == 4
        assert report.flips == ()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_high_bit_flip_corrected(self, rng, algorithm):
        a, b = _ints(rng, (16, 16)), _ints(rng, (16, 16))
        plan = SDCPlan(rate=1.0, seed=3, bit=48, max_flips=1)
        c, report = abft_gemm(
            a, b, Mesh2D(2, 2), algorithm=algorithm, slices=2, plan=plan
        )
        assert len(report.flips) == 1
        assert np.array_equal(c, a @ b)
        assert report.corrected + report.checksum_repaired + report.recomputed >= 1

    def test_gemm_flip_corrected_in_place(self, rng):
        # Flips confined to the local GeMM hook hit one output block
        # element and must be handled without recomputation.
        a, b = _ints(rng, (16, 16)), _ints(rng, (16, 16))
        plan = SDCPlan(rate=1.0, ops=("gemm",), seed=9, bit=45, max_flips=1)
        c, report = abft_gemm(a, b, Mesh2D(2, 2), slices=2, plan=plan)
        assert np.array_equal(c, a @ b)
        assert report.recomputed == 0
        assert report.corrected + report.checksum_repaired == 1

    def test_multi_flip_recomputed(self, rng):
        a, b = _ints(rng, (16, 16)), _ints(rng, (16, 16))
        plan = SDCPlan(rate=1.0, seed=4, bit=50)
        c, report = abft_gemm(a, b, Mesh2D(2, 2), slices=2, plan=plan)
        assert len(report.flips) > 1
        assert np.array_equal(c, a @ b)
        assert report.recomputed >= 1

    def test_unknown_algorithm_rejected(self, rng):
        a, b = _ints(rng, (8, 8)), _ints(rng, (8, 8))
        with pytest.raises(ValueError, match="algorithm"):
            abft_gemm(a, b, Mesh2D(2, 2), algorithm="cannon")

    def test_report_count(self, rng):
        a, b = _ints(rng, (8, 8)), _ints(rng, (8, 8))
        _, report = abft_gemm(a, b, Mesh2D(2, 2))
        assert report.count("clean") == report.clean == 4
        assert report.count("uncorrectable") == 0

    def test_metrics_counters(self, rng):
        from repro.obs.registry import registry

        a, b = _ints(rng, (8, 8)), _ints(rng, (8, 8))
        before = registry().counter_value("abft.blocks_verified")
        abft_gemm(a, b, Mesh2D(2, 2))
        assert registry().counter_value("abft.blocks_verified") == before + 4


class TestConfigKnobs:
    def test_defaults_off(self):
        cfg = GeMMConfig(
            GeMMShape(64, 64, 64), Mesh2D(2, 2), Dataflow.OS, slices=1
        )
        assert cfg.abft is False
        assert cfg.sdc_rate == 0.0

    def test_sdc_rate_validated(self):
        with pytest.raises(ValueError):
            GeMMConfig(
                GeMMShape(64, 64, 64), Mesh2D(2, 2), Dataflow.OS,
                slices=1, sdc_rate=1.5,
            )

    def test_hash_distinguishes_abft(self):
        cfg = GeMMConfig(
            GeMMShape(64, 64, 64), Mesh2D(2, 2), Dataflow.OS, slices=1
        )
        protected = dataclasses.replace(cfg, abft=True, sdc_rate=0.01)
        assert cfg != protected
        assert hash(cfg) != hash(protected)

    def test_payload_factor(self):
        cfg = GeMMConfig(
            GeMMShape(64, 128, 256), Mesh2D(2, 2), Dataflow.OS,
            slices=1, abft=True,
        )
        m_loc, n_loc = 64 // 2, 128 // 2
        assert abft_payload_factor(cfg, "a") == pytest.approx(1 + 1 / m_loc)
        assert abft_payload_factor(cfg, "b") == pytest.approx(1 + 1 / n_loc)
        assert abft_payload_factor(cfg, "c") == pytest.approx(
            (1 + 1 / m_loc) * (1 + 1 / n_loc)
        )
        off = dataclasses.replace(cfg, abft=False)
        assert abft_payload_factor(off, "a") == 1.0

    def test_protected_ops_scale_with_slices(self):
        cfg = GeMMConfig(
            GeMMShape(64, 64, 64), Mesh2D(2, 2), Dataflow.OS,
            slices=4, abft=True,
        )
        assert abft_protected_ops(cfg) == 4 * 3  # gemm + two collectives
        one_ring = dataclasses.replace(cfg, mesh=Mesh2D(4, 1), slices=1)
        assert abft_protected_ops(one_ring) == 2


class TestTimedOverhead:
    def _cfg(self, algorithm, **kw):
        slices = 1 if algorithm == "collective" else 4
        return GeMMConfig(
            GeMMShape(1024, 1024, 1024), Mesh2D(2, 2), Dataflow.OS,
            slices=slices, **kw,
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_abft_program_slower_with_abft_activities(self, algorithm):
        algo = get_algorithm(algorithm)
        base_prog = algo.build_program(self._cfg(algorithm), TPUV4)
        prot_prog = algo.build_program(
            self._cfg(algorithm, abft=True, sdc_rate=1e-3), TPUV4
        )
        base_labels = {a.label for a in base_prog.activities}
        prot_labels = {a.label for a in prot_prog.activities}
        assert not any(lbl.startswith("abft") for lbl in base_labels)
        assert {"abft_encode_a", "abft_encode_b", "abft_verify_c",
                "abft_recompute"} <= prot_labels
        assert makespan(prot_prog.run()) > makespan(base_prog.run())

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_abft_off_program_unchanged(self, algorithm):
        """abft=False builds the exact pre-ABFT program structure."""
        algo = get_algorithm(algorithm)
        cfg = self._cfg(algorithm)
        first = algo.build_program(cfg, TPUV4)
        second = algo.build_program(dataclasses.replace(cfg), TPUV4)
        assert [
            (a.label, a.duration, tuple(a.deps)) for a in first.activities
        ] == [
            (a.label, a.duration, tuple(a.deps)) for a in second.activities
        ]

    def test_recompute_scales_with_rate(self):
        algo = get_algorithm("meshslice")
        low = algo.build_program(
            self._cfg("meshslice", abft=True, sdc_rate=1e-4), TPUV4
        )
        high = algo.build_program(
            self._cfg("meshslice", abft=True, sdc_rate=0.5), TPUV4
        )

        def recompute_seconds(prog):
            return sum(
                a.duration for a in prog.activities
                if a.label == "abft_recompute"
            )

        assert recompute_seconds(high) > recompute_seconds(low)

    def test_checksum_cost_memory_bound(self):
        cost = checksum_cost(1e6, TPUV4)
        assert cost.flops == 0.0
        assert cost.hbm_bytes == 1e6 * TPUV4.dtype_bytes
        assert cost.seconds == pytest.approx(
            TPUV4.t_kernel + cost.hbm_bytes / TPUV4.hbm_bandwidth
        )
        with pytest.raises(ValueError):
            checksum_cost(-1.0, TPUV4)


class TestTunerIntegration:
    def test_estimate_includes_protection(self):
        from repro.autotuner.costmodel import meshslice_estimate

        cfg = GeMMConfig(
            GeMMShape(4096, 4096, 4096), Mesh2D(4, 4), Dataflow.OS, slices=4
        )
        base = meshslice_estimate(cfg, TPUV4)
        prot = meshslice_estimate(
            dataclasses.replace(cfg, abft=True, sdc_rate=1e-3), TPUV4
        )
        assert prot.total > base.total

    def test_collective_estimate_includes_protection(self):
        from repro.autotuner.costmodel import collective_estimate

        cfg = GeMMConfig(
            GeMMShape(4096, 4096, 4096), Mesh2D(4, 4), Dataflow.OS, slices=1
        )
        base = collective_estimate(cfg, TPUV4)
        prot = collective_estimate(
            dataclasses.replace(cfg, abft=True, sdc_rate=1e-3), TPUV4
        )
        assert prot.total > base.total

    def test_best_slice_count_keeps_knobs(self):
        from repro.autotuner.costmodel import best_slice_count

        cfg = GeMMConfig(
            GeMMShape(4096, 4096, 4096), Mesh2D(4, 4), Dataflow.OS,
            slices=1, abft=True, sdc_rate=1e-3,
        )
        s, estimate = best_slice_count(cfg, TPUV4)
        protected = meshslice_total = estimate.total
        nominal = best_slice_count(
            dataclasses.replace(cfg, abft=False, sdc_rate=0.0), TPUV4
        )[1].total
        assert s >= 1
        assert protected == meshslice_total > nominal

    def test_tune_passes_knobs_through(self):
        from repro.autotuner import tune_model
        from repro.models import GPT3_175B

        result = tune_model(
            GPT3_175B, batch_size=8, chips=16, hw=TPUV4,
            abft=True, sdc_rate=1e-3,
        )
        for tuned in result.passes:
            cfg = tuned.config(result.mesh)
            assert cfg.abft and cfg.sdc_rate == 1e-3
