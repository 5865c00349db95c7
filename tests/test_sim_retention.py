"""The simulation caches retain no per-activity Python objects.

Programs keep their activities as attribute columns and results keep
their spans as a row table, so after a sweep the cached objects are
tuples of atomic values that the garbage collector stops tracking. The
check runs in a fresh interpreter: the test process holds unrelated
spans and activities from other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_SCRIPT = r"""
import gc
import json

from repro.autotuner import plan_model
from repro.experiments.common import grid_map, run_block
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import GPT3_175B
from repro.perf import clear_caches
from repro.perf.cache import _REGISTRY
from repro.perf.pipeline import built_program
from repro.sim.engine import Activity, Span

PLANS = plan_model(GPT3_175B, GPT3_175B.tokens(8))


def point(args):
    algorithm, rows, cols = args
    return run_block(algorithm, PLANS, Mesh2D(rows, cols), TPUV4)


clear_caches()
points = [
    (algorithm, rows, cols)
    for algorithm in ("meshslice", "collective", "summa")
    for rows, cols in ((4, 4), (8, 2))
]
blocks = grid_map(point, points, jobs=1)
read = blocks[0].results[0]
read.spans
# Under REPRO_NO_CACHE the store is empty; a fresh build stands in.
programs = list(_REGISTRY["built_program"].store.values())
programs.append(built_program("meshslice", blocks[0].configs[0], TPUV4))

# A tuple is untracked only once its items are: two passes settle it.
gc.collect()
gc.collect()

results = {id(r): r for block in blocks for r in block.results}.values()
read_results = [r for r in results if r.table._spans is not None]
read_ids = {id(s) for r in read_results for s in r.spans}
objects = gc.get_objects()
print(json.dumps({
    "results": len(results),
    "read_results": [r is read for r in read_results],
    "activities": sum(type(o) is Activity for o in objects),
    "stray_spans": sum(
        type(o) is Span and id(o) not in read_ids for o in objects
    ),
    "read_spans": len(read.spans),
    "programs": len(programs),
    # CPython never untracks a tuple that holds a dict, so the shared
    # and meta columns stay tracked (two objects per program); the
    # dicts in them hold atomic values only and are untracked.
    "tracked_columns": sum(
        gc.is_tracked(column)
        for p in programs
        for name, column in zip(p.columns._fields, p.columns)
        if name not in ("shared", "metas")
    ),
    "tracked_dicts": sum(
        gc.is_tracked(entry)
        for p in programs
        for column in (p.columns.shared, p.columns.metas)
        for entry in column
    ),
    "tracked_rows": sum(
        gc.is_tracked(r.table.rows)
        for r in results if r.table._spans is None
    ),
}))
"""


def _report():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_caches_hold_columns_and_row_tables_only():
    report = _report()
    assert report["results"] > 1
    # Only the result whose spans were read built them.
    assert report["read_results"] == [True]
    assert report["read_spans"] > 0
    assert report["activities"] == 0
    assert report["stray_spans"] == 0
    assert report["programs"] >= 1
    assert report["tracked_columns"] == 0
    assert report["tracked_dicts"] == 0
    assert report["tracked_rows"] == 0
