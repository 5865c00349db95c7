"""The campaign crash-tolerance contract, pinned end to end.

A sweep SIGKILLed mid-flight, then resumed (at any ``--jobs``), must
leave a record store byte-identical to one written by an uninterrupted
serial run — across ``PYTHONHASHSEED`` values. These tests kill real
subprocess sweeps and diff the raw store bytes.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

CAMPAIGN = "kill-test"

#: A campaign of real simulations: argv = (root, jobs, n_points).
SWEEP_SCRIPT = """
import sys
from repro.campaign import CampaignRunner, CampaignStore


def point(n):
    from repro import TPUV4, get_algorithm, simulate
    from repro.algorithms import GeMMConfig
    from repro.core import Dataflow, GeMMShape
    from repro.mesh import Mesh2D

    cfg = GeMMConfig(
        GeMMShape(512 * (1 + n % 3), 512, 512),
        Mesh2D(2, 2),
        Dataflow.OS,
        slices=1,
    )
    program = get_algorithm("meshslice").build_program(cfg, TPUV4)
    return simulate(program, TPUV4).makespan


root, jobs, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
summary = CampaignRunner(
    CampaignStore(root), "kill-test", point, jobs=jobs
).run(list(range(n)))
sys.stdout.write(
    f"complete={summary.complete} ran={summary.ran} "
    f"skipped={summary.skipped} failed={summary.failed} "
    f"quarantined={summary.quarantined}\\n"
)
"""

N_POINTS = 10
KILL_AFTER_RECORDS = 3


def _env(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    env.pop("REPRO_JOBS", None)
    return env


def _sweep(root, jobs, hashseed):
    """Run one sweep subprocess to completion; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_SCRIPT, str(root), str(jobs),
         str(N_POINTS)],
        capture_output=True,
        env=_env(hashseed),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def _record_count(store_file):
    try:
        with open(store_file, "rb") as handle:
            return handle.read().count(b"\n")
    except OSError:
        return 0


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member already exited


def _live_members(pgid):
    """Pids of the process group's members that have not exited.

    Killed pool workers are reparented and may linger as zombies until
    their new parent reaps them; a zombie runs nothing, so it does not
    count. Without ``/proc`` any member counts.
    """
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(entry))
    return live


def _kill_mid_sweep(root, jobs, hashseed):
    """Start a sweep, SIGKILL its whole process group once records are
    landing, and check that no pool worker outlives it."""
    store_file = os.path.join(root, f"{CAMPAIGN}.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-c", SWEEP_SCRIPT, str(root), str(jobs),
         str(N_POINTS)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(hashseed),
        start_new_session=True,
    )
    pgid = proc.pid  # a new session's leader leads its process group
    deadline = time.monotonic() + 600
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if _record_count(store_file) >= KILL_AFTER_RECORDS:
                _kill_group(pgid)
                break
            time.sleep(0.01)
        proc.wait(timeout=600)
    finally:
        if proc.poll() is None:
            _kill_group(pgid)
            proc.wait()
    # SIGKILL lands asynchronously; give the workers a moment to die.
    deadline = time.monotonic() + 10
    while _live_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_members(pgid) == [], "sweep processes outlived the kill"
    # Either the kill landed mid-sweep (the interesting case) or the
    # sweep won the race and finished; both must resume cleanly.
    count = _record_count(store_file)
    assert count > 0, "sweep was killed before any record landed"
    return count


def _store_bytes(root):
    with open(os.path.join(root, f"{CAMPAIGN}.jsonl"), "rb") as handle:
        return handle.read()


class TestKillResumeDeterminism:
    def _check(self, tmp_path, jobs):
        killed_root = str(tmp_path / "killed")
        os.makedirs(killed_root)
        _kill_mid_sweep(killed_root, jobs, hashseed="0")
        out = _sweep(killed_root, jobs, hashseed="17")
        assert "complete=True" in out and "failed=0" in out
        cold_root = str(tmp_path / "cold")
        cold_out = _sweep(cold_root, 1, hashseed="31337")
        assert f"complete=True ran={N_POINTS} skipped=0" in cold_out
        assert _store_bytes(killed_root) == _store_bytes(cold_root)

    def test_serial_sweep_killed_and_resumed(self, tmp_path):
        self._check(tmp_path, jobs=1)

    def test_parallel_sweep_killed_and_resumed(self, tmp_path):
        """Satellite: kill a 4-way pool mid-flight, resume 4-way."""
        self._check(tmp_path, jobs=4)


class TestResumeSkipsWork:
    def test_completed_sweep_resumes_as_noop(self, tmp_path):
        root = str(tmp_path / "store")
        first = _sweep(root, 1, hashseed="0")
        assert f"complete=True ran={N_POINTS} skipped=0" in first
        before = _store_bytes(root)
        second = _sweep(root, 1, hashseed="99")
        assert f"complete=True ran=0 skipped={N_POINTS}" in second
        assert _store_bytes(root) == before
