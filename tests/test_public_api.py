"""Tests for the stable top-level ``repro`` API surface."""

import re
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert isinstance(repro.__version__, str)
        assert len(repro.__version__.split(".")) == 3

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert match.group(1) == repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_lazy_names_in_dir(self):
        listing = dir(repro)
        for name in ("simulate", "TuneRequest", "get_algorithm", "FaultPlan"):
            assert name in listing

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.not_a_real_name

    def test_algorithm_registry(self):
        names = repro.algorithm_names()
        assert "meshslice" in names
        alg = repro.get_algorithm("meshslice")
        assert alg.name == "meshslice"

    def test_lazy_exports_are_canonical_objects(self):
        from repro.algorithms import get_algorithm
        from repro.faults import NULL_PLAN, FaultPlan, FaultSpec
        from repro.service import TuneRequest
        from repro.sim.cluster import SimResult, simulate
        from repro.sim.trace import Trace

        assert repro.simulate is simulate
        assert repro.TuneRequest is TuneRequest
        assert repro.get_algorithm is get_algorithm
        assert repro.FaultPlan is FaultPlan
        assert repro.FaultSpec is FaultSpec
        assert repro.NULL_PLAN is NULL_PLAN
        assert repro.SimResult is SimResult
        assert repro.Trace is Trace

    def test_simulate_end_to_end(self):
        from repro.algorithms import GeMMConfig
        from repro.core import Dataflow, GeMMShape
        from repro.mesh import Mesh2D

        cfg = GeMMConfig(
            GeMMShape(2048, 2048, 2048), Mesh2D(2, 2), Dataflow.OS, slices=2
        )
        program = repro.get_algorithm("meshslice").build_program(
            cfg, repro.TPUV4
        )
        result = repro.simulate(program, repro.TPUV4)
        assert result.makespan > 0
        assert isinstance(result, repro.SimResult)
