"""Program fixtures shared by the simulator tests.

* :func:`repeat_program` stacks copies of one program into a deep DAG,
  the large-program input of the engine, lazy-span and observability
  suites.
* :func:`image` and :func:`image_digest` fingerprint a built program:
  every float as its hex, every value with its type, dict key order
  kept. The digest is a sha256 over the image's ``repr`` and does not
  depend on the hash seed.
* :func:`artifact_images` runs experiments serially and collects the
  digest of every program each registered algorithm builds.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from typing import Dict, List, Sequence, Set, Tuple

from repro.sim.engine import Columns
from repro.sim.program import Program


def repeat_program(block: Program, copies: int) -> Program:
    """Stack ``copies`` sequential repetitions of ``block``.

    This is the deep-model constructor: one transformer-style layer
    (``block``, e.g. a distributed GeMM program) repeated layer after
    layer. Copy ``k+1``'s entry activities (those with no intra-block
    dependencies) depend on copy ``k``'s exit activities (those with no
    intra-block dependents) — the layer-to-layer dataflow of a stacked
    model.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    cols = block.columns
    n = len(cols.aids)
    position = {aid: i for i, aid in enumerate(cols.aids)}
    referenced = set()
    for deps in cols.deps:
        referenced.update(deps)
    sinks = tuple(i for i, aid in enumerate(cols.aids) if aid not in referenced)
    aids: List[int] = []
    labels: List[str] = []
    shared: List[Dict[str, float]] = []
    deps_out: List[Tuple[int, ...]] = []
    metas: List[Dict[str, object]] = []
    for k in range(copies):
        base = k * n
        prefix = f"layer{k}/"
        if k:
            entry_deps = tuple(base - n + s for s in sinks)
        else:
            entry_deps = ()
        aids.extend(range(base, base + n))
        labels.extend([prefix + label for label in cols.labels])
        shared.extend([dict(demands) for demands in cols.shared])
        deps_out.extend([
            tuple(base + position[d] for d in deps) if deps else entry_deps
            for deps in cols.deps
        ])
        metas.extend([dict(m) for m in cols.metas])
    columns = Columns(
        tuple(aids),
        tuple(labels),
        cols.kinds * copies,
        cols.durations * copies,
        cols.exclusive * copies,
        tuple(shared),
        tuple(deps_out),
        tuple(metas),
    )
    meta = dict(block.meta)
    meta["copies"] = copies
    return Program.from_columns(
        columns, dict(block.shared_capacities), meta
    )


def typed(value):
    """``value`` with every float as its hex and every value typed."""
    kind = type(value)
    if kind is float:
        return ("float", value.hex())
    if kind is dict:
        return ("dict",) + tuple((key, typed(v)) for key, v in value.items())
    if kind is tuple or kind is list:
        return (kind.__name__,) + tuple(typed(v) for v in value)
    return (kind.__name__, value)


def image(program: Program):
    """Everything a built program is compared on."""
    return (
        typed(tuple(program.columns)),
        typed(program.shared_capacities),
        program.meta,
    )


def image_digest(program: Program) -> str:
    """The sha256 of ``repr(image(program))``."""
    return hashlib.sha256(repr(image(program)).encode()).hexdigest()


def algorithm_classes():
    """Every :class:`DistributedGeMM` subclass, registered or not."""
    from repro.algorithms.base import DistributedGeMM

    pending, seen = [DistributedGeMM], {}
    while pending:
        for sub in pending.pop().__subclasses__():
            seen[sub] = None
            pending.append(sub)
    return list(seen)


def artifact_images(
    monkeypatch, artifacts: Sequence[str]
) -> Dict[str, Dict[str, str]]:
    """``{artifact: {algorithm: digest}}`` over every build of each
    artifact, run serially from empty caches.

    An algorithm's digest is the sha256 of its distinct program digests
    in sorted order, so it depends neither on build order nor on how
    many builds the caches saved.
    """
    from repro.cli import run_experiment
    from repro.perf.cache import clear_caches

    seen: Dict[str, Set[str]] = {}
    for cls in algorithm_classes():
        build = vars(cls).get("build_program")
        if build is None:
            continue

        def recording(self, cfg, hw, _build=build):
            program = _build(self, cfg, hw)
            seen.setdefault(self.name, set()).add(image_digest(program))
            return program

        monkeypatch.setattr(cls, "build_program", recording)
    monkeypatch.setenv("REPRO_JOBS", "1")
    images = {}
    for name in artifacts:
        seen.clear()
        clear_caches()
        try:
            with redirect_stdout(io.StringIO()):
                run_experiment(name)
        finally:
            clear_caches()
        images[name] = {
            algorithm: hashlib.sha256(
                "\n".join(sorted(digests)).encode()
            ).hexdigest()
            for algorithm, digests in sorted(seen.items())
        }
    return images
