"""The ``meshslice`` CLI's stdout and flag defaults, pinned.

``goldens/cli_stdout.json`` holds two things, both captured with
``PYTHONHASHSEED=0``, ``REPRO_JOBS=1`` and no other ``REPRO_*``
variable (the first two change no byte):

* ``stdout``: for each invocation in :data:`INVOCATIONS`, the sha256
  of what ``meshslice <argv>`` prints (for ``elastic --events``, also
  of the event-log file it writes). ``serve`` is pinned up to its
  per-query lines; the latency summary after them is wall clock.
* ``defaults``: for every subcommand, its ``{option string: default}``
  map (positionals by their dest), as ``build_parser`` declares it.

A refactor of the CLI must keep both. :data:`REMOVED_OPTIONS` lists
the options deleted on purpose since the capture.

Regenerate only for an intended change: ``PYTHONPATH=src python
tests/test_cli_goldens.py`` rewrites the file; review which digests
moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "goldens" / "cli_stdout.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A small mixed query file for ``serve --replay``; the duplicate
#: exercises in-flight coalescing and the memory tier.
QUERIES = "".join(
    json.dumps(query, sort_keys=True) + "\n"
    for query in (
        {"schema": 2, "mode": "tune", "model": "gpt3-175b", "batch": 8,
         "chips": 16, "hw": "tpuv4-sim"},
        {"schema": 2, "mode": "tune", "model": "gpt3-175b", "batch": 8,
         "chips": 32, "hw": "tpuv4-sim"},
        {"schema": 2, "mode": "tune", "model": "gpt3-175b", "batch": 8,
         "chips": 16, "hw": "tpuv4-sim"},
    )
)

ELASTIC = [
    "elastic", "gpt3-175b", "--mesh", "4x4", "--spares", "2",
    "--duration-days", "10", "--chip-mtbf-hours", "500",
]

#: Golden name -> argv. Every path argument is relative to a scratch
#: working directory, so the echoed stdout is the same everywhere.
INVOCATIONS = {
    "list": ["list"],
    "models": ["models"],
    "presets": ["presets"],
    "tune": ["tune", "gpt3-175b", "--chips", "16", "--batch", "8"],
    "faults": [
        "faults", "gpt3-175b", "--chips", "16", "--ensemble", "2",
        "--stragglers", "2",
    ],
    "recovery": ["recovery", "gpt3-175b", "--chips", "16"],
    "recovery-degrade": [
        "recovery", "gpt3-175b", "--chips", "16", "--policy", "degrade",
    ],
    "sdc": ["sdc", "--rate", "0.02", "--mesh", "2x2", "--trials", "2"],
    "sdc-seed-7": [
        "sdc", "--rate", "0.02", "--mesh", "2x2", "--trials", "2",
        "--seed", "7",
    ],
    "elastic": ELASTIC,
    "elastic-events": [
        *ELASTIC, "--policy", "replace", "--events", "events.jsonl",
    ],
    "profile": ["profile", "gpt3-175b", "--chips", "16", "--batch", "8"],
    "serve": ["serve", "--replay", "queries.jsonl", "--workers", "2"],
}

#: Options deleted since the capture: ``recovery --batch`` was echoed
#: in the header but never simulated (the point runs the weak-scaling
#: batch of its chip count).
REMOVED_OPTIONS = {"recovery": {"--batch"}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture(name: str, workdir: Path) -> dict:
    """Run one invocation in a fresh process; digests of its output.

    A fresh interpreter per invocation keeps process-wide state (memo
    caches, metric counters) from leaking between them: ``profile``
    prints the hit rates of its own run only.
    """
    (workdir / "queries.jsonl").write_text(QUERIES)
    # No other REPRO_* knob: the goldens pin the default configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", REPRO_JOBS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *INVOCATIONS[name]],
        capture_output=True, env=env, cwd=workdir, timeout=600,
    )
    assert proc.returncode == 0, f"{name}: {proc.stderr.decode()}"
    stdout = proc.stdout
    if name == "serve":
        stdout = stdout.split(b"\nserved ")[0]
    digests = {"stdout": _sha(stdout)}
    if name == "elastic-events":
        digests["events"] = _sha((workdir / "events.jsonl").read_bytes())
    return digests


def _subparsers(parser):
    """``(command path, parser)`` for every subcommand, nested ones too."""
    for action in parser._subparsers._group_actions:
        for name, child in action.choices.items():
            yield name, child
            if child._subparsers is not None:
                for sub, grandchild in _subparsers(child):
                    yield f"{name} {sub}", grandchild


def option_defaults() -> dict:
    """Every subcommand's ``{option string: default}`` map."""
    return {
        command: {
            (action.option_strings[-1] if action.option_strings
             else action.dest): action.default
            for action in parser._actions
            if not isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            )
        }
        for command, parser in _subparsers(build_parser())
    }


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_stdout_matches_the_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())["stdout"][name]
    assert capture(name, tmp_path) == expected, (
        f"meshslice {' '.join(INVOCATIONS[name])}: output differs from "
        "the golden"
    )


def test_the_golden_covers_every_invocation():
    assert sorted(json.loads(GOLDEN.read_text())["stdout"]) == sorted(
        INVOCATIONS
    )


@pytest.mark.parametrize(
    "command", [name for name, _ in _subparsers(build_parser())]
)
def test_option_defaults_match_the_golden(command):
    pinned = json.loads(GOLDEN.read_text())["defaults"][command]
    removed = REMOVED_OPTIONS.get(command, set())
    expected = {k: v for k, v in pinned.items() if k not in removed}
    assert option_defaults()[command] == expected


def test_the_golden_covers_every_subcommand():
    assert sorted(option_defaults()) == sorted(
        json.loads(GOLDEN.read_text())["defaults"]
    )


if __name__ == "__main__":
    import tempfile

    stdout = {}
    for invocation in INVOCATIONS:
        with tempfile.TemporaryDirectory() as scratch:
            stdout[invocation] = capture(invocation, Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {"stdout": stdout, "defaults": option_defaults()},
            indent=2, sort_keys=True,
        ) + "\n"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
