"""Cross-algorithm conformance: one battery, every registered algorithm.

Any algorithm that enters ``algorithm_names()`` is automatically pulled
through the same four contracts, so the zoo cannot grow an algorithm
that silently breaks them:

* **functional bit-exactness** — integer-valued float64 operands make
  every summation order produce identical bits, so the functional
  plane must equal ``A @ B`` exactly, not approximately;
* **null-fault-plan bit-identity** — running under ``FaultPlan()``
  must produce the very same spans as running with no plan at all;
* **engine identity** — the reference engine (tests'
  ``reference_engine.py``) and the event-heap engine must emit
  identical span lists for the same program;
* **metrics-delta determinism** — simulating the whole zoo must emit
  byte-identical metric records across ``PYTHONHASHSEED`` values.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_engine import ReferenceEngine

from repro.algorithms import GeMMConfig, algorithm_names, get_algorithm
from repro.core import Dataflow, GeMMShape
from repro.faults import FaultPlan
from repro.hw import HardwareParams
from repro.mesh import Mesh2D

SRC = str(Path(__file__).resolve().parent.parent / "src")
TESTS = str(Path(__file__).resolve().parent)


def conformance_config(name: str) -> GeMMConfig:
    """A small supported output-stationary config for each algorithm."""
    shape = GeMMShape(16, 16, 16)
    if name in ("1dtp", "fsdp"):
        return GeMMConfig(shape, Mesh2D(1, 4), Dataflow.OS, slices=2)
    if name in ("cannon", "collective"):
        return GeMMConfig(shape, Mesh2D(2, 2), Dataflow.OS, slices=1)
    if name == "sfc":
        # slices = tiles per chip: a 2x2 tile block per chip (4x4 grid).
        return GeMMConfig(shape, Mesh2D(2, 2), Dataflow.OS, slices=4)
    if name in ("meshslice", "sliced", "summa", "wang"):
        return GeMMConfig(shape, Mesh2D(2, 2), Dataflow.OS, slices=2)
    raise KeyError(
        f"algorithm {name!r} has no conformance config; every "
        "registered algorithm must be covered here"
    )


def integer_operands(cfg: GeMMConfig):
    """Integer-valued float64 operands: exact under any summation order."""
    rng = np.random.default_rng(42)
    m, n, k = cfg.shape.m, cfg.shape.n, cfg.shape.k
    a = rng.integers(-8, 9, size=(m, k)).astype(np.float64)
    b = rng.integers(-8, 9, size=(k, n)).astype(np.float64)
    return a, b


ALL_NAMES = algorithm_names()


class TestCoverage:
    def test_every_registered_algorithm_has_a_config(self):
        for name in ALL_NAMES:
            cfg = conformance_config(name)
            reason = get_algorithm(name).check_support(cfg)
            assert reason is None, f"{name}: unsupported config: {reason}"


class TestFunctionalBitExactness:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_bit_exact_vs_dense(self, name):
        cfg = conformance_config(name)
        a, b = integer_operands(cfg)
        result = get_algorithm(name).functional(a, b, cfg)
        assert result.dtype == np.float64
        assert np.array_equal(result, a @ b), f"{name} not bit-exact"


class TestNullFaultPlanIdentity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_null_plan_spans_are_bit_identical(self, name):
        cfg = conformance_config(name)
        program = get_algorithm(name).build_program(cfg, HardwareParams())
        bare = program.run()
        under_null = program.run(faults=FaultPlan())
        assert bare == under_null


class TestEngineIdentity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reference_heap_agree(self, name):
        cfg = conformance_config(name)
        program = get_algorithm(name).build_program(cfg, HardwareParams())
        reference = ReferenceEngine(
            program.activities, program.shared_capacities
        ).run()
        heap = program.run()
        assert heap == reference, f"{name}: heap != reference"


#: Run the whole zoo (simulation + functional) and dump metric records.
ZOO_SCRIPT = """
import sys

import numpy as np

from repro.algorithms import algorithm_names, get_algorithm
from repro.hw import HardwareParams
from repro.obs.export import collect_records, dumps_records
from test_algorithm_conformance import conformance_config, integer_operands

hw = HardwareParams()
for name in algorithm_names():
    cfg = conformance_config(name)
    alg = get_algorithm(name)
    spans = alg.build_program(cfg, hw).run()
    a, b = integer_operands(cfg)
    exact = np.array_equal(alg.functional(a, b, cfg), a @ b)
    sys.stdout.write(
        f"{name} makespan={max(s.end for s in spans):.9e} exact={exact}\\n"
    )
sys.stdout.write(dumps_records(collect_records()))
"""


def _run_zoo(hashseed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        SRC + os.pathsep + TESTS + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", ZOO_SCRIPT],
        capture_output=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestMetricsDeltaDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        first = _run_zoo("0")
        second = _run_zoo("31337")
        assert first == second
        for name in ALL_NAMES:
            assert f"{name} ".encode() in first
        assert b"exact=False" not in first
