#!/usr/bin/env python3
"""Host-time benchmark of the MeshSlice reproduction on its real workloads.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload corpus --seed 0 --seconds 20 --trace 0
    python3 benchmarks/perf/run.py --seed 1 --trace 1 --out set.json

Without ``--workload`` every workload runs, iterations interleaved
round-robin so drift on a shared host lands on all of them evenly.

Each iteration is a fresh interpreter (``worker.py``; one per command
for ``cli``), timed from this process: ``wall_s`` from spawn to exit,
``setup_s`` from spawn until the worker has imported its entry modules
and built its inputs, ``peak_rss_mb`` from the worker's rusage. Both
times are scaled to a reference host speed by the worker's host-speed
gauge (``host.wall_s`` and ``host.setup_s`` are the unscaled ones). Every
operation's output is checked against ``expected.json``. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced and untraced iterations alternate and the per-layer metrics are
reported (self times from the traced ones, overhead against the
untraced ones). Each metric is a median over the run's iterations.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``; with several
workloads the names are prefixed ``<workload>.``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perf_work"

#: A worker that has not exited by then is killed and counted failed.
CHILD_TIMEOUT_S = 120.0

#: The CLI's per-experiment timing footer, the one non-deterministic line.
_TIMING_LINE = re.compile(r"^--- \S+ done in [0-9.]+s$", re.MULTILINE)

#: Per-layer metrics that are exact counts: they repeat bit for bit
#: between iterations and runs of the same code.
EXACT = {
    "algorithms.build_program.calls": "count",
    "sim.runs": "count",
    "sim.activities": "count",
    "perf.simulated_pass.hit_rate": "ratio",
    "perf.simulated_program.hit_rate": "ratio",
    "service.store_hit_rate": "ratio",
    "campaign.store_bytes": "B",
}

#: ``-X importtime`` entries reported as ``cli.import*`` metrics.
IMPORTS = {
    "repro.cli": "cli.import_s",
    "repro.experiments": "cli.import.repro.experiments_s",
    "numpy": "cli.import.numpy_s",
}

#: Caches whose counters prove a workload's simulations ran in-process.
GUARD_CACHES = ("simulated_pass", "faulted_pass")

#: Seconds one host-speed gauge sample takes at the reference speed
#: (about this benchmark's 2-vCPU Xeon VM at 2.1 GHz in a fast phase).
#: ``wall_s`` and ``setup_s`` are host seconds times this over the
#: mean sample taken while they ran.
GAUGE_REF_S = 0.001


def child_env(work: str) -> dict:
    """The pinned environment of every worker: serial grids, fixed hash
    seed, single-threaded BLAS, temp files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        REPRO_JOBS="1",
        TMPDIR=work,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def host_scale(samples: list) -> float:
    """Reference over measured host speed: ``GAUGE_REF_S`` over the
    mean gauge sample (1.0 without samples)."""
    return GAUGE_REF_S / statistics.fmean(samples) if samples else 1.0


def _await_byte(fd: int, deadline: float):
    """One byte from ``fd`` (``b""`` at EOF), or ``None`` on timeout."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
        return None
    return os.read(fd, 1)


def spawn(argv: list, env: dict, directory: str) -> dict:
    """Run one worker to completion and time it from outside.

    The worker writes one byte to the inherited pipe when its set-up is
    done; the pipe reaches EOF when the worker exits.
    """
    stdout_path = os.path.join(directory, "stdout")
    stderr_path = os.path.join(directory, "stderr")
    read_fd, write_fd = os.pipe()
    argv = argv + ["--ready-fd", str(write_fd)]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, pass_fds=(write_fd,),
        )
        os.close(write_fd)
        deadline = start + CHILD_TIMEOUT_S
        setup = None
        try:
            first = _await_byte(read_fd, deadline)
            if first:
                setup = time.perf_counter() - start
                first = _await_byte(read_fd, deadline)
        finally:
            os.close(read_fd)
        if first is None:
            proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, "rb") as handle:
        stdout = handle.read().decode("utf-8", "replace")
    with open(stderr_path, "rb") as handle:
        stderr = handle.read().decode("utf-8", "replace")
    return {
        "wall": wall,
        "setup": setup,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": first is None,
        "stdout": stdout,
        "stderr": stderr,
    }


def import_times(env: dict) -> dict:
    """Cumulative import seconds of ``repro.cli`` and its heavy parts."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2].strip()
        if name in IMPORTS and IMPORTS[name] not in found:
            found[IMPORTS[name]] = int(parts[1]) / 1e6
    return {metric: found.get(metric, 0.0) for metric in IMPORTS.values()}


class Iteration:
    """The outcome of one iteration of one workload."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.wall = 0.0
        self.setup = 0.0
        self.host_wall = 0.0
        self.host_setup = 0.0
        self.gauge = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures = []
        self.cache = {}
        self.counters = {}
        self.self_s = {}
        self.calls = {}
        self.extra = {}
        self.imports = {}

    def check(self, name: str, digest, error, expected: dict) -> None:
        """Count one operation; record it failed on an error or a digest
        that differs from the pinned one."""
        self.attempted += 1
        if error is None and digest is not None and expected.get(name) != digest:
            error = (f"digest mismatch: expected {expected.get(name)} "
                     f"actual {digest}")
        if error is not None:
            self.failures.append(f"{self.workload} {name}: {error}")

    def add_child(self, child: dict, result) -> None:
        gauge = (result or {}).get("gauge") or {"samples": [], "ready": 0}
        samples = gauge["samples"]
        before_ready = samples[:gauge["ready"]]
        # The gauge's own samples are not the program's time.
        wall = child["wall"] - sum(samples)
        setup = (child["setup"] or 0.0) - sum(before_ready)
        self.host_wall += wall
        self.host_setup += setup
        self.wall += wall * host_scale(samples)
        self.setup += setup * host_scale(before_ready or samples)
        self.gauge.extend(samples)
        self.rss_mb = max(self.rss_mb, child["rss_mb"])
        if result is None:
            return
        for name, (hits, misses) in result["cache"].items():
            total = self.cache.setdefault(name, [0, 0])
            total[0] += hits
            total[1] += misses
        for name, value in result["counters"].items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for key in ("store_bytes", "store_hit_rate"):
            if key in result:
                self.extra[key] = result[key]
        if result["trace"] is not None:
            for layer, value in result["trace"]["self_s"].items():
                self.self_s[layer] = self.self_s.get(layer, 0.0) + value
            for layer, value in result["trace"]["calls"].items():
                self.calls[layer] = self.calls.get(layer, 0) + value

    def layer_values(self) -> dict:
        """This (traced) iteration's per-layer metric values."""
        def hit_rate(name):
            hits, misses = self.cache.get(name, (0, 0))
            return hits / (hits + misses) if hits + misses else 0.0

        values = {f"{layer}.self_s": self.self_s.get(layer, 0.0)
                  for layer in worker.LAYERS}
        values.update({
            "algorithms.build_program.calls": self.calls.get(
                worker.BUILD_LAYER, 0),
            "sim.runs": int(self.counters.get("sim.runs", 0)),
            "sim.activities": int(self.counters.get("sim.activities", 0)),
            "perf.simulated_pass.hit_rate": hit_rate("simulated_pass"),
            "perf.simulated_program.hit_rate": hit_rate("simulated_program"),
            "service.store_hit_rate": self.extra.get("store_hit_rate", 0.0),
            "campaign.store_bytes": self.extra.get("store_bytes", 0),
        })
        values["sim.engine.activities_per_s"] = (
            values["sim.activities"] / values["sim.engine.self_s"]
            if values["sim.engine.self_s"] else 0.0
        )
        values["trace.unattributed_s"] = (self.host_wall
                                          - sum(self.self_s.values()))
        values.update(self.imports)
        return values


def run_iteration(workload: str, seed: int, traced: bool, work: str,
                  env: dict, expected: dict) -> Iteration:
    it = Iteration(workload, traced)
    commands = range(len(worker.CLI_COMMANDS)) if workload == "cli" else [None]
    for command in commands:
        directory = tempfile.mkdtemp(dir=work)
        result_path = os.path.join(directory, "result.json")
        argv = [
            sys.executable, str(HERE / "worker.py"), workload,
            "--seed", str(seed), "--work", directory, "--result", result_path,
        ]
        if command is not None:
            argv += ["--command", str(command)]
        if traced:
            argv.append("--trace")
        child = spawn(argv, env, directory)
        result = None
        if os.path.exists(result_path):
            with open(result_path) as handle:
                result = json.load(handle)
        shutil.rmtree(directory, ignore_errors=True)
        it.add_child(child, result)
        label = (" ".join(worker.CLI_COMMANDS[command])
                 if command is not None else "worker")
        if child["timed_out"] or child["setup"] is None or (
            result is None and command is None
        ):
            tail = child["stderr"].strip().splitlines()[-1:] or ["no output"]
            it.check(label, None, f"worker died: {tail[0]}", expected)
            continue
        if command is not None:
            error = None
            if child["code"] != 0:
                error = f"exit code {child['code']}"
            text = _TIMING_LINE.sub("", child["stdout"])
            it.check(label, worker.digest(text), error, expected)
        else:
            for name, digest, error in result["ops"]:
                it.check(name, digest, error, expected)
    guard = sum(sum(it.cache.get(name, (0, 0))) for name in GUARD_CACHES)
    it.check(
        "serial-grid guard", None,
        None if guard else "simulation cache counters are zero; did a "
        "grid run in worker processes?",
        expected,
    )
    if traced:
        it.imports = import_times(env)
    return it


def summarize(values: list) -> dict:
    """Median and interquartile range of one metric's samples."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
    }


def report_workload(iterations: list) -> dict:
    """End-to-end and per-layer statistics of one workload's iterations."""
    plain = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    end_to_end = {
        "wall_s": dict(summarize([it.wall for it in plain]), unit="s"),
        "setup_s": dict(summarize([it.setup for it in plain]), unit="s"),
        "peak_rss_mb": dict(summarize([it.rss_mb for it in plain]),
                            unit="MB"),
    }
    # The unscaled times and the gauge, from the untraced iterations.
    per_layer = {
        "host.wall_s": dict(summarize([it.host_wall for it in plain]),
                            unit="s"),
        "host.setup_s": dict(summarize([it.host_setup for it in plain]),
                             unit="s"),
        "host.calib_ms": dict(summarize(
            [statistics.fmean(it.gauge) * 1e3 for it in plain if it.gauge]
            or [0.0]), unit="ms"),
    }
    consistent = True
    if traced:
        samples = [it.layer_values() for it in traced]
        for name in samples[0]:
            values = [sample[name] for sample in samples]
            per_layer[name] = summarize(values)
            per_layer[name]["unit"] = EXACT.get(name, "s")
            if name in EXACT:
                consistent &= len(set(values)) == 1
                per_layer[name]["median"] = values[0]
        per_layer["sim.engine.activities_per_s"]["unit"] = "1/s"
        overhead = (
            statistics.median(it.host_wall for it in traced)
            / per_layer["host.wall_s"]["median"] - 1.0
        ) * 100.0
        per_layer["trace.overhead_pct"] = {
            "median": overhead, "n": len(traced), "unit": "%",
        }
    failures = [f for it in iterations for f in it.failures]
    attempted = sum(it.attempted for it in iterations)
    if traced:
        attempted += 1
        if not consistent:
            failures.append("exact per-layer counts differ between "
                            "iterations")
    return {
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(worker.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; 1 is held out)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    parser.add_argument("--out", help="write the full statistics as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    with open(HERE / "expected.json") as handle:
        expected = json.load(handle)
    workloads = list(dict.fromkeys(args.workload or worker.WORKLOADS))
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    env = child_env(work)
    try:
        # Untimed warm-up: bytecode caches and the page cache, which a
        # user's repeated meshslice calls find warm.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            cwd=ROOT, env=env, check=True,
        )
        iterations = {name: [] for name in workloads}
        kinds = (False, True) if args.trace else (False,)
        start = time.perf_counter()
        budget = args.seconds * len(workloads)
        done = False
        while not done:
            for traced in kinds:
                for name in workloads:
                    iterations[name].append(run_iteration(
                        name, args.seed, traced, work, env,
                        expected.get(name, {}),
                    ))
            done = time.perf_counter() - start >= budget
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    reports = {name: report_workload(its) for name, its in iterations.items()}
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, rep in reports.items():
        counts = rep["iterations"]
        print(f"== {name} (seed {args.seed}; {counts['untraced']} untraced, "
              f"{counts['traced']} traced iterations)")
        for failure in rep["failures"]:
            print(f"FAILED {failure}")
        print(f"  error_rate        {rep['failed'] / rep['attempted']:.6f}  "
              f"({rep['failed']} of {rep['attempted']} operations)")
        for kind in ("end_to_end", "per_layer"):
            for metric, stats in rep[kind].items():
                print(f"  {metric:36s} {stats['median']:.6g} {stats['unit']}"
                      f"  (IQR {stats.get('iqr', 0.0):.3g}, n={stats['n']})")
                if kind == section:
                    key = metric if len(reports) == 1 else f"{name}.{metric}"
                    metrics[key] = {"value": stats["median"],
                                    "unit": stats["unit"]}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "workloads": reports,
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
    attempted = sum(rep["attempted"] for rep in reports.values())
    failed = sum(rep["failed"] for rep in reports.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
