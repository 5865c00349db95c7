"""Every experiment's report against digests pinned before a refactor.

``goldens/experiment_reports.json`` holds the sha256 of
``run_experiment(name)`` — the text ``meshslice run <name>`` prints —
for every registered experiment. The digests were captured before the
per-module ``run()``/``main()`` runners were folded into each
experiment's ``CAMPAIGN`` spec, and they do not depend on the hash
seed, the worker count, or whether caching or metrics are on. A change
that moves one byte of one report fails here, naming the experiment.

Regenerate only for an intended change of a report: dump
``{name: sha256(run_experiment(name))}`` as indented JSON with sorted
keys, and review which digests moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import run_experiment
from repro.experiments import EXPERIMENTS

GOLDEN = Path(__file__).parent / "goldens" / "experiment_reports.json"


def test_the_golden_covers_every_experiment():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_report_matches_the_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    actual = hashlib.sha256(run_experiment(name).encode()).hexdigest()
    assert actual == expected, f"{name}: report differs from the golden"
