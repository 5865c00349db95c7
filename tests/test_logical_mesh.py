"""Tests for the logical-mesh / shared-NIC network extension (Sec. 6)."""


import pytest

from repro.algorithms import GeMMConfig, get_algorithm
from repro.autotuner.costmodel import meshslice_estimate
from repro.core import Dataflow, GeMMShape
from repro.hw import GPU_LOGICAL_MESH, TPUV4, HardwareParams
from repro.mesh import Mesh2D
from repro.sim import LINK_H, LINK_V, NIC, ProgramBuilder, simulate

BIG = GeMMShape(m=262144, n=49152, k=12288)


class TestHardwareValidation:
    def test_shared_nic_requires_bandwidth(self):
        with pytest.raises(ValueError, match="nic_bandwidth"):
            HardwareParams(network="shared-nic", nic_bandwidth=0.0)

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="network"):
            HardwareParams(network="infiniband")

    def test_preset(self):
        assert GPU_LOGICAL_MESH.has_shared_nic
        assert not TPUV4.has_shared_nic


class TestNICContention:
    def _two_collectives(self, hw):
        builder = ProgramBuilder(hw)
        builder.allgather("ag_h", 8, 100e6, LINK_H)
        builder.allgather("ag_v", 8, 100e6, LINK_V)
        return builder.build().run()

    def test_torus_directions_independent(self):
        spans = self._two_collectives(TPUV4)
        ends = [s.end for s in spans]
        starts = [s.start for s in spans]
        # Fully parallel: both start at 0 and take the nominal time.
        assert max(starts) == pytest.approx(0.0)
        assert max(ends) == pytest.approx(min(ends), rel=0.01)

    def test_shared_nic_stretches_concurrent_collectives(self):
        torus_spans = self._two_collectives(TPUV4)
        logical_spans = self._two_collectives(
            TPUV4.with_overrides(network="shared-nic", nic_bandwidth=120e9)
        )
        assert max(s.end for s in logical_spans) > max(
            s.end for s in torus_spans
        ) * 1.2

    def test_single_collective_unaffected_when_under_capacity(self):
        roomy = TPUV4.with_overrides(
            network="shared-nic", nic_bandwidth=1e12
        )
        builder = ProgramBuilder(roomy)
        builder.allgather("ag", 8, 100e6, LINK_H)
        spans = builder.build().run()
        builder2 = ProgramBuilder(TPUV4)
        builder2.allgather("ag", 8, 100e6, LINK_H)
        reference = builder2.build().run()
        assert spans[0].end == pytest.approx(reference[0].end, rel=1e-6)

    def test_nic_capacity_registered(self):
        builder = ProgramBuilder(GPU_LOGICAL_MESH)
        program = builder.build()
        assert program.shared_capacities[NIC] == GPU_LOGICAL_MESH.nic_bandwidth


class TestMeshSliceOnLogicalMesh:
    def test_slower_than_torus(self):
        alg = get_algorithm("meshslice")
        cfg = GeMMConfig(BIG, Mesh2D(16, 16), Dataflow.OS, slices=8)
        torus = simulate(alg.build_program(cfg, TPUV4), TPUV4)
        logical = simulate(
            alg.build_program(cfg, GPU_LOGICAL_MESH), GPU_LOGICAL_MESH
        )
        assert logical.makespan > torus.makespan

    def test_cost_model_contention_extension(self):
        """The Section 6 autotuner modification: the analytical model
        inflates concurrent collective times under a shared NIC. The
        work-conserving NIC bound binds when the two directions carry
        comparable, compute-dominating traffic."""
        balanced = GeMMShape(m=65536, n=65536, k=1024)
        cfg = GeMMConfig(balanced, Mesh2D(16, 16), Dataflow.OS, slices=4)
        torus_est = meshslice_estimate(cfg, TPUV4)
        logical_est = meshslice_estimate(
            cfg, TPUV4.with_overrides(network="shared-nic", nic_bandwidth=120e9)
        )
        assert logical_est.total > torus_est.total

    def test_cost_model_tracks_simulation_under_contention(self):
        alg = get_algorithm("meshslice")
        for slices in (2, 8):
            cfg = GeMMConfig(BIG, Mesh2D(16, 16), Dataflow.OS, slices=slices)
            est = meshslice_estimate(cfg, GPU_LOGICAL_MESH).total
            sim = simulate(
                alg.build_program(cfg, GPU_LOGICAL_MESH), GPU_LOGICAL_MESH
            ).makespan
            assert est == pytest.approx(sim, rel=0.35)


class TestAblationExperiment:
    def test_everyone_degrades_and_meshslice_still_wins(self):
        from repro.experiments.ablation_logical_mesh import compare

        rows = [
            compare(algorithm, chips=16)
            for algorithm in ("collective", "wang", "meshslice")
        ]
        by_alg = {r.algorithm: r for r in rows}
        for row in rows:
            assert row.degradation is not None
            assert row.degradation >= -0.02  # never faster on logical
        assert (
            by_alg["meshslice"].logical_utilization
            > by_alg["collective"].logical_utilization
        )

    def test_cost_model_agreement_under_contention(self):
        from repro.experiments.ablation_logical_mesh import cost_model_agreement

        est, sim = cost_model_agreement(chips=16)
        assert est == sim
