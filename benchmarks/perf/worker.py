"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Every iteration pays interpreter start-up and the lazy set-up of the
``repro`` package, exactly as a ``meshslice`` call does, so ``run.py``
spawns this script once per iteration (once per command for ``cli``)
and times it from outside. The protocol with the parent:

* after the workload's entry modules are imported and its inputs are
  built, one byte is written to ``--ready-fd`` (the parent's
  ``setup_s`` clock stops when it arrives);
* the outcome of every operation (name, sha256 of its output, or the
  error that stopped it), the per-cache hit/miss totals, the engine
  counters and, with ``--trace``, the per-layer self times are written
  as JSON to ``--result``;
* ``cli`` commands write their normal stdout, which the parent digests;
* untraced, the host-speed gauge's samples (see ``HostGauge``) go into
  the result too, with how many of them were taken during set-up.

The parent pins ``REPRO_JOBS=1`` in the environment, so every grid runs
in this process and its cache counters are visible here.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import importlib
import itertools
import json
import os
import random
import signal
import sys
import threading
import time
import types
from collections import defaultdict

#: The ten paper artifacts, run in one process so figures that share
#: grid points (fig9 -> fig10) reuse each other's cached simulations.
ARTIFACTS = (
    "fig4", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "table2", "table3",
)

#: ``meshslice`` commands whose cost is mostly interpreter start-up.
CLI_COMMANDS = (
    ("list",),
    ("fig4",),
    ("fig15",),
    ("table3",),
    ("ablation-zoo",),
    ("tune", "gpt3-175b", "--chips", "64"),
)

#: Campaign specs swept through a fresh store: two figure grids, the
#: faulted-run grid and the lifetime simulator (63 points in all).
CAMPAIGNS = ("fig9", "fig13", "ablation-faults", "ablation-elastic")

#: The tuning-service query mix: TUNE_QUERIES nominal requests over the
#: model x chips x batch catalog, plus the robust and degraded ones.
TUNE_MODELS = ("gpt3-175b", "megatron-nlg-530b", "llama2-70b", "palm-540b")
TUNE_CHIPS = (16, 32, 64, 128, 256, 512, 1024)
TUNE_BATCHES = (8, 32)
TUNE_QUERIES = 400
ZIPF_EXPONENT = 1.1
ROBUST = (
    ("gpt3-175b", 16), ("gpt3-175b", 64), ("gpt3-175b", 256),
    ("llama2-70b", 16), ("llama2-70b", 64), ("llama2-70b", 256),
)
ROBUST_ENSEMBLE = 8
#: Robust requests draw their fault seed from ``seed % FAULT_SEEDS`` so
#: that every output any ``--seed`` can produce has a pinned digest.
FAULT_SEEDS = 8
DEGRADED = (
    ("gpt3-175b", (4, 4)), ("gpt3-175b", (8, 8)),
    ("llama2-70b", (4, 4)), ("llama2-70b", (8, 8)),
)
DEGRADED_DEAD = (1, 2)

#: Result fields left out of a tuning digest: the per-mesh search map
#: depends on the warm-start path, and the fault ensemble is an input.
_UNDIGESTED_FIELDS = frozenset({"per_mesh_seconds", "fault_plans"})

#: Public entry points whose host time is attributed to each layer:
#: ``(layer, module, attribute)``, where the attribute may name a
#: method as ``Class.method``. A target missing from the code base is
#: skipped, so the benchmark keeps running across refactors.
LAYER_TARGETS = (
    ("experiments", "repro.cli", "run_experiment"),
    ("perf.simulated_pass", "repro.perf.pipeline", "_simulated_pass"),
    ("perf.simulated_pass", "repro.perf.pipeline", "_faulted_pass"),
    ("perf.pass_lower_bound", "repro.perf.pipeline", "_pass_lower_bound"),
    ("sim.simulate", "repro.sim.cluster", "simulate"),
    ("sim.engine", "repro.sim.engine", "Engine.run"),
    ("sim.engine", "repro.sim.engine", "Engine.run_with_failures"),
    ("sim.engine", "repro.sim.compiled", "CompiledEngine.run"),
    ("obs.derive", "repro.obs.derive", "derive_run_metrics"),
    ("faults.apply", "repro.faults.plan", "FaultPlan.apply"),
    ("faults.apply", "repro.faults.spec", "FaultSpec.sample"),
    ("autotuner.costmodel", "repro.autotuner.costmodel", "meshslice_estimate"),
    ("autotuner.costmodel", "repro.autotuner.costmodel", "sliced_estimate"),
    ("autotuner.costmodel", "repro.autotuner.costmodel", "collective_estimate"),
    ("autotuner.costmodel", "repro.autotuner.costmodel", "best_slice_count"),
    ("autotuner.costmodel", "repro.autotuner.costmodel",
     "best_sliced_slice_count"),
    ("autotuner.search", "repro.autotuner.search", "tune_model"),
    ("autotuner.search", "repro.autotuner.search", "robust_tune_model"),
    ("autotuner.search", "repro.autotuner.dataflow", "plan_model"),
    ("autotuner.search", "repro.service.warmstart", "warm_tune"),
    ("service.request", "repro.service.request", "execute"),
    ("service.request", "repro.service.request", "TuneRequest.canonical"),
    ("service.request", "repro.service.request", "TuneRequest.cache_key"),
    ("service.request", "repro.service.server", "TunerService.submit"),
    ("service.request", "repro.service.server", "TunerService._resolve"),
    ("service.store", "repro.service.store", "PlanStore.load"),
    ("service.store", "repro.service.store", "PlanStore.save"),
    ("service.store", "repro.service.store", "PlanStore.nearest_neighbor"),
    ("campaign.store", "repro.campaign.store", "CampaignStore.append"),
    ("campaign.store", "repro.campaign.store", "CampaignStore.load"),
    ("campaign.store", "repro.campaign.store", "CampaignStore.repair"),
    ("campaign.codec", "repro.campaign.codec", "canonical_json"),
    ("campaign.codec", "repro.campaign.codec", "point_key"),
    ("campaign.codec", "repro.campaign.codec", "decode_value"),
    ("campaign.codec", "repro.campaign.records", "make_record"),
    ("campaign.codec", "repro.campaign.records", "encode_record"),
    ("campaign.codec", "repro.campaign.records", "validate_record"),
)

#: Every ``build_program`` override of the algorithm classes is timed
#: under this layer (found by walking the ``DistributedGeMM`` subclasses).
BUILD_LAYER = "algorithms.build_program"

#: Every layer the tracer reports, including those a workload never
#: enters (they report zero).
LAYERS = tuple(dict.fromkeys(
    [layer for layer, _module, _attr in LAYER_TARGETS] + [BUILD_LAYER]
))

#: The host-speed gauge times GAUGE_LOOP steps of a fixed loop every
#: GAUGE_PERIOD_S of wall time (about 5% of the worker's time).
GAUGE_PERIOD_S = 0.02
GAUGE_LOOP = 10_000


class HostGauge:
    """Samples the host's speed while the worker runs.

    On a shared host a vCPU's speed moves by a quarter within seconds,
    and a probe on another vCPU does not follow it, so the speed has to
    be sampled in this process, between its own steps: a SIGALRM every
    ``GAUGE_PERIOD_S`` times a fixed pure-Python loop. The loop is timed
    in thread CPU time, so a sample taken while the tuning service's
    worker thread holds the GIL does not count that thread's work.
    """

    def __init__(self):
        self.samples = []
        self._busy = False

    def _sample(self, _signum, _frame) -> None:
        if self._busy:  # a signal that lands inside a sample
            return
        self._busy = True
        start = time.thread_time()
        total = 0
        for i in range(GAUGE_LOOP):
            total += i * i % 7
        self.samples.append(time.thread_time() - start)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _resolve(module_name: str, attr_path: str):
    """``(owner, attribute name)`` of a target, or ``None`` if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Host-time spans around each layer's entry points.

    A span's self time is its duration minus the time of the spans it
    encloses. Re-entering the layer a thread is already in (recursion,
    or one entry point calling another of the same layer) opens no new
    span, so the per-layer call count is the number of entries from
    outside the layer. Stacks are per thread: the tuning service
    resolves requests on its worker thread while the caller waits.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        clock = time.perf_counter
        local = self._local
        lock = self._lock
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                with lock:
                    self_s[layer] += elapsed - frame[1]
                    calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every target that exists in the loaded code base."""
        for layer, module_name, attr_path in LAYER_TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                continue
            owner, attr = found
            original = vars(owner)[attr]
            traced = self.wrap(layer, original)
            setattr(owner, attr, traced)
            if isinstance(owner, types.ModuleType):
                _rebind(original, traced)
        base = _resolve("repro.algorithms.base", "DistributedGeMM")
        if base is not None:
            pending, seen = list(getattr(*base).__subclasses__()), set()
            while pending:
                cls = pending.pop()
                if cls in seen:
                    continue
                seen.add(cls)
                pending.extend(cls.__subclasses__())
                build = vars(cls).get("build_program")
                if build is not None:
                    cls.build_program = self.wrap(BUILD_LAYER, build)

    def report(self) -> dict:
        return {
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "calls": {layer: self.calls[layer] for layer in LAYERS},
        }


class CacheTally:
    """Per-cache hit/miss totals that survive ``clear_caches()``.

    The campaign runner clears every cache before each point, which
    also zeroes the counters; the tally banks them first.
    """

    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0])

    def install(self) -> None:
        from repro.perf import cache

        original = cache.clear_caches

        def clear_caches(names=None):
            self._bank(cache.cache_stats(), names)
            return original(names)

        clear_caches.__doc__ = original.__doc__
        cache.clear_caches = clear_caches
        _rebind(original, clear_caches)

    def _bank(self, stats, names=None) -> None:
        for name, entry in stats.items():
            if names is None or name in names:
                self.totals[name][0] += entry.hits
                self.totals[name][1] += entry.misses

    def report(self) -> dict:
        from repro.perf.cache import cache_stats

        self._bank(cache_stats())
        return {name: list(counts) for name, counts in self.totals.items()}


def _plain(value):
    """A result object as JSON-able data with a deterministic layout."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name not in _UNDIGESTED_FIELDS
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """sha256 of a tuning result's canonical JSON."""
    return digest(json.dumps(
        _plain(result), sort_keys=True, separators=(",", ":"),
        default=lambda obj: obj.item(),
    ))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------- workloads
#
# Each workload is a ``setup(args)`` that imports its entry modules and
# builds its inputs, and a ``run(inputs, tracer, out)`` that does the
# work, returns the list of ``[name, digest, error]`` operation outcomes
# and may add workload-specific results to ``out``.


def setup_corpus(args):
    import repro.cli
    from repro.perf import clear_caches

    return repro.cli, clear_caches


def run_corpus(inputs, tracer, out):
    cli, clear_caches = inputs
    clear_caches()
    ops = []
    for name in ARTIFACTS:
        try:
            ops.append([name, digest(cli.run_experiment(name)), None])
        except Exception as exc:
            ops.append([name, None, _error(exc)])
    return ops


def setup_cli(args):
    import repro.cli

    return repro.cli, list(CLI_COMMANDS[args.command])


def run_cli(inputs, tracer, out):
    cli, argv = inputs
    out["exit_code"] = cli.main(argv)
    sys.stdout.flush()
    return []


def setup_campaign(args):
    from repro.campaign import (
        CampaignRunner,
        CampaignStore,
        get_campaign,
        report,
    )

    specs = [get_campaign(name) for name in CAMPAIGNS]
    points = [list(spec.points()) for spec in specs]
    store = CampaignStore(os.path.join(args.work, "campaign"))
    return CampaignRunner, report, store, specs, points


def run_campaign(inputs, tracer, out):
    CampaignRunner, report, store, specs, points = inputs
    ops = []
    for spec, grid in zip(specs, points):
        point = spec.point if tracer is None else tracer.wrap(
            "experiments", spec.point
        )
        summary = CampaignRunner(store, spec.name, point, jobs=1).run(grid)
        stored = summary.ok + summary.duplicates
        ops.extend([f"{spec.name}/point", None, None] for _ in range(stored))
        ops.extend(
            [f"{spec.name}/point", None, "point failed or not stored"]
            for _ in range(len(grid) - stored)
        )
    out["store_bytes"] = sum(
        os.path.getsize(store.path_for(spec.name)) for spec in specs
    )
    for spec, grid in zip(specs, points):
        name = f"{spec.name}/report"
        try:
            again = CampaignRunner(store, spec.name, spec.point, jobs=1)
            ran = again.run(grid).ran
            render = report if tracer is None else tracer.wrap(
                "experiments", report
            )
            text = render(store, spec.name, spec)
        except Exception as exc:
            ops.append([name, None, _error(exc)])
            continue
        if ran:
            ops.append([name, None, f"resume re-ran {ran} stored point(s)"])
        else:
            ops.append([name, digest(text), None])
    return ops


def tune_queries(seed: int):
    """The seeded ``(operation name, TuneRequest)`` list of one run."""
    from repro.faults import FaultSpec
    from repro.hw import get_preset
    from repro.mesh import Mesh2D
    from repro.models import get_model
    from repro.service import TuneRequest

    hw = get_preset("tpuv4-sim")
    rng = random.Random(seed)
    catalog = [
        (f"tune/{model}/{chips}/{batch}",
         TuneRequest(model=get_model(model), batch=batch, chips=chips, hw=hw))
        for model, chips, batch in itertools.product(
            TUNE_MODELS, TUNE_CHIPS, TUNE_BATCHES
        )
    ]
    # Every catalog entry once, so each seed searches the same unique
    # requests; zipf-drawn repeats (popularity in catalog order) on top.
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(catalog))]
    queries = catalog + rng.choices(
        catalog, weights=weights, k=TUNE_QUERIES - len(catalog)
    )
    fault_seed = seed % FAULT_SEEDS
    spec = FaultSpec(stragglers=2, launch_jitter=0.1, seed=fault_seed)
    for model, chips in ROBUST:
        queries.append((
            f"robust/{model}/{chips}/{fault_seed}",
            TuneRequest(
                model=get_model(model), batch=chips // 2, chips=chips, hw=hw,
                mode="robust", spec=spec, ensemble=ROBUST_ENSEMBLE,
            ),
        ))
    for model, (rows, cols) in DEGRADED:
        queries.append((
            f"degraded/{model}/{rows}x{cols}",
            TuneRequest(
                model=get_model(model), batch=8, hw=hw, mode="degraded",
                mesh=Mesh2D(rows, cols), dead=DEGRADED_DEAD,
            ),
        ))
    rng.shuffle(queries)
    return queries


def setup_tune_serve(args):
    from repro.service import PlanStore, TunerService

    store = PlanStore(os.path.join(args.work, "plans"))
    return TunerService, store, tune_queries(args.seed)


def run_tune_serve(inputs, tracer, out):
    TunerService, store, queries = inputs
    ops = []
    # Cold: every unique request is a search plus a store write. Warm:
    # a fresh service over the same store, so every lookup is a read.
    for phase in ("cold", "warm"):
        digests = {}
        with TunerService(store, workers=1) as service:
            for name, request in queries:
                try:
                    result = service.serve(request)
                    # Repeats are served the same object from memory;
                    # keeping it in the map pins its id.
                    if id(result) not in digests:
                        digests[id(result)] = (result, result_digest(result))
                except Exception as exc:
                    ops.append([name, None, _error(exc)])
                    continue
                ops.append([name, digests[id(result)][1], None])
            hit_rate = service.stats()["store_hit_rate"]
        if phase == "warm":
            out["store_hit_rate"] = hit_rate
            if hit_rate != 1.0:
                ops.append(["warm/store", None, f"store hit rate {hit_rate}"])
    return ops


WORKLOADS = {
    "corpus": (setup_corpus, run_corpus),
    "cli": (setup_cli, run_cli),
    "campaign": (setup_campaign, run_campaign),
    "tune-serve": (setup_tune_serve, run_tune_serve),
}


def _engine_counters() -> dict:
    from repro.obs.registry import registry

    reg = registry()
    return {
        name: reg.counter_value(name) for name in ("sim.runs", "sim.activities")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--command", type=int, default=0,
                        help="index into CLI_COMMANDS (cli workload)")
    parser.add_argument("--work", required=True,
                        help="scratch directory for stores")
    parser.add_argument("--ready-fd", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.set_inheritable(args.ready_fd, False)
    # Traced workers skip the gauge so that no sample lands in a span.
    gauge = None if args.trace else HostGauge()
    if gauge is not None:
        gauge.start()

    setup, run = WORKLOADS[args.workload]
    inputs = setup(args)
    ready = len(gauge.samples) if gauge is not None else 0
    os.write(args.ready_fd, b"r")

    tally = CacheTally()
    tally.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    out = {}
    out["ops"] = run(inputs, tracer, out)
    if gauge is not None:
        gauge.stop()
        out["gauge"] = {"samples": gauge.samples, "ready": ready}
    out["cache"] = tally.report()
    out["counters"] = _engine_counters()
    out["trace"] = tracer.report() if tracer is not None else None
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return int(out.get("exit_code", 0))


if __name__ == "__main__":
    sys.exit(main())
