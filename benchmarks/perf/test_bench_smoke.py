"""Smoke test of the host-time benchmark (outside the tier-1 test paths).

Runs one iteration of every workload and checks the benchmark's own
contract: every metric ``BENCHMARK.json`` declares is printed with its
unit, no operation fails, the exact per-layer counts repeat between two
runs, and a directory without the ``repro`` sources is refused::

    python -m pytest benchmarks/perf/test_bench_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Units of the per-layer metrics that are exact counts.
EXACT_UNITS = {"count", "ratio", "B"}


def _declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(trace, cwd=ROOT, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_declared(result, section):
    declared = _declared()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in declared["workloads"]
        for metric in declared[section]
    }
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected


@pytest.fixture(scope="module")
def traced_runs():
    return [_result(_run(1)), _result(_run(1))]


def test_end_to_end_metrics_are_emitted():
    _assert_declared(_result(_run(0)), "end_to_end")


def test_per_layer_metrics_are_emitted(traced_runs):
    for result in traced_runs:
        _assert_declared(result, "per_layer")
        for workload in _declared()["workloads"]:
            gauge = result["metrics"][f"{workload['name']}.host.calib_ms"]
            assert gauge["value"] > 0, workload["name"]


def test_exact_counts_repeat(traced_runs):
    first, second = traced_runs
    exact = {
        name: metric for name, metric in first["metrics"].items()
        if metric["unit"] in EXACT_UNITS
    }
    assert exact
    for name, metric in exact.items():
        assert second["metrics"][name] == metric, name


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path,
                run_py=tmp_path / "benchmarks" / "perf" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
