"""Command-line interface: ``meshslice <command>``.

Experiment reproduction::

    meshslice list                    # enumerate experiments
    meshslice run fig9                # run one (any name from `list`)
    meshslice run all                 # run everything
    meshslice run fig9 --jobs 8       # spread grid points over 8 processes

Deployment planning and introspection::

    meshslice tune gpt3-175b --chips 256 --batch 128 [--hw tpuv4-sim]
    meshslice faults gpt3-175b --chips 256 --stragglers 2
    meshslice recovery gpt3-175b --chips 256 --chip-mtbf-hours 2000
    meshslice elastic gpt3-175b --mesh 4x4 --policy replace --spares 2
    meshslice sdc --rate 1e-2 --mesh 4x4 --trials 8
    meshslice profile gpt3-175b --chips 16 --batch 8
    meshslice serve --store plans/ --replay queries.jsonl
    meshslice campaign run fig13 --store sweeps/   # durable resumable sweep
    meshslice campaign status --store sweeps/
    meshslice models                  # model zoo
    meshslice presets                 # hardware presets

``--metrics out.jsonl`` on ``run``/``tune``/``faults``/``recovery``/
``profile`` dumps everything the observability layer collected during
the command (see ``docs/observability.md`` for the schema).

Every flag is declared once in :data:`SUBCOMMANDS` (or, when several
subcommands take it, in :data:`SHARED`) together with its default,
help and single-flag check; one loop runs the checks of the parsed
subcommand before its handler, so a bad value exits 2 with one line
``meshslice <cmd>: invalid <flag> <value> (<requirement>)``. Handlers
keep only the checks that involve two flags. ``recovery`` and ``sdc``
compute their points through their experiments' campaign specs.

Bare experiment names keep working as aliases of ``run`` —
``meshslice fig9 --jobs 8`` and ``meshslice all`` behave exactly as
they did before the subcommand interface existed.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import List, Optional

from repro.experiments import EXPERIMENTS


def _require(ok, requirement: str):
    """A flag check: ``requirement`` when ``ok(value)`` fails, else None."""
    return lambda value: None if ok(value) else requirement


def _known(module: str, names: str):
    """A flag check that the value is a name ``module.names()`` lists."""
    def check(value):
        known = getattr(importlib.import_module(module), names)()
        return None if value in known else "known: " + ", ".join(known)
    return check


def _shape(spec: str):
    """Parse an ``RxC`` mesh shape; None when malformed."""
    parts = spec.lower().split("x")
    if len(parts) == 2 and all(p.isdigit() and int(p) > 0 for p in parts):
        return int(parts[0]), int(parts[1])
    return None


AT_LEAST_ONE = _require(lambda v: v >= 1, "must be >= 1")
NON_NEGATIVE = _require(lambda v: v >= 0, "must be non-negative")
POSITIVE = _require(lambda v: v > 0, "must be positive")
FRACTION = _require(lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
MESH_SHAPE = _require(lambda v: _shape(v) is not None, "expected RxC")


class _Given(argparse.Action):
    """Store a flag's value and note its dest in ``args.given``.

    Lets a handler pass on only the flags the user set, so the
    defaults of what it calls stay the ones in force.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {*getattr(namespace, "given", ()), self.dest}


def _flag(option: str, *fields, **keywords):
    """A flag of one subcommand, or its overrides of a :data:`SHARED` one.

    ``fields`` are, in order, the ``type``, ``default``, ``check`` and
    ``help``; other ``add_argument`` keywords pass through.
    """
    fields = dict(zip(("type", "default", "check", "help"), fields))
    return option, {**fields, **keywords}


#: Flags several subcommands take, each declared once with its default,
#: help and check. A subcommand may override the help (and, for
#: ``faults --seed``, drop the check: its fault ensembles accept any
#: integer seed).
SHARED = dict((
    _flag("model", None, None, _known("repro.models", "model_names"),
          "model name (see 'models')", nargs="?"),
    _flag("--chips", int, 256, AT_LEAST_ONE, "cluster size"),
    _flag("--batch", int, None, AT_LEAST_ONE,
          "global batch (default: chips / 2)"),
    _flag("--hw", None, "tpuv4-sim", _known("repro.hw", "preset_names"),
          "hardware preset name (see 'presets')"),
    _flag("--algorithm", None, "meshslice",
          _known("repro.algorithms", "algorithm_names"),
          "distributed GeMM algorithm to simulate"),
    _flag("--chip-mtbf-hours", float, 2000.0, POSITIVE,
          "per-chip mean time between failures, hours"),
    _flag("--repair-minutes", float, 60.0, NON_NEGATIVE,
          "chip repair/replacement time, minutes"),
    _flag("--checkpoint-seconds", float, 60.0, POSITIVE,
          "checkpoint write cost, seconds"),
    _flag("--restart-seconds", float, 180.0, NON_NEGATIVE,
          "restart (reload + reschedule) cost, seconds"),
    _flag("--seed", int, 0, NON_NEGATIVE, "base seed of the random draws",
          action=_Given),
    _flag("--jobs", int, None, AT_LEAST_ONE,
          "worker processes for the grid "
          "(default: REPRO_JOBS env var, then the CPU count)"),
    _flag("--metrics", None, None, None,
          "write collected metrics to a JSONL file after the command "
          "(schema: docs/observability.md)", metavar="PATH"),
))

CLUSTER = ("model", "--chips", "--batch", "--hw")
RELIABILITY = (
    "--chip-mtbf-hours", "--repair-minutes", "--checkpoint-seconds",
    "--restart-seconds",
)


def _fail(message: object) -> int:
    """Print a one-line diagnostic to stderr; the exit code 2."""
    print(message, file=sys.stderr)
    return 2


def _bad_flag(command: str, flag: str, value: object, requirement: str) -> int:
    """One-line exit-2 diagnostic naming the offending flag."""
    return _fail(f"meshslice {command}: invalid {flag} {value} ({requirement})")


def _validate(args: argparse.Namespace) -> int:
    """Run the parsed subcommand's flag checks; 0 if all pass.

    A repeatable flag is checked value by value, and an unset optional
    one (None) not at all; a missing model prints a usage line.
    """
    for prog, action, check in getattr(args, "checks", ()):
        value = getattr(args, action.dest)
        for item in value if isinstance(value, list) else [value]:
            requirement = None if item is None else check(item)
            if requirement is not None:
                flag = (action.option_strings or [action.dest])[0]
                return _bad_flag(prog, flag, item, requirement)
    if getattr(args, "model", "") is None:
        return _fail(f"usage: meshslice {args.command} <model> [options] "
                     f"(see meshslice {args.command} --help)")
    return 0


def normalize_argv(argv: List[str]) -> List[str]:
    """Rewrite legacy invocations into the subcommand form.

    ``meshslice fig9 --jobs 8`` and ``meshslice all`` predate the
    subcommand interface; when the first positional token is not a
    known subcommand it is an experiment name, so ``run`` is inserted
    in front of it.
    """
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        return ["run", *argv]
    return list(argv)


def run_experiment(name: str) -> str:
    """Run one experiment's default grid and return its report."""
    try:
        module = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    spec = module.CAMPAIGN
    return spec.render(spec.run())


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:22s} {doc}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.experiments.common import render_table
    from repro.models import get_model, model_names

    rows = [
        (name, m.num_layers, m.hidden, m.ffn_dim,
         f"{m.approx_params / 1e9:.0f}B (FC)")
        for name, m in ((name, get_model(name)) for name in model_names())
    ]
    print(render_table(["model", "layers", "hidden", "ffn", "params"], rows))
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    from repro.experiments.common import render_table
    from repro.hw import get_preset, preset_names

    rows = [
        (name, f"{hw.peak_flops / 1e12:.0f} TF",
         f"{hw.link_bandwidth / 1e9:.0f} GB/s x{hw.links_per_direction}",
         hw.network, "yes" if hw.overlap_collectives else "no")
        for name, hw in ((name, get_preset(name)) for name in preset_names())
    ]
    print(render_table(
        ["preset", "peak", "link bw", "network", "AG/RdS overlap"], rows
    ))
    return 0


def _cluster(args: argparse.Namespace, chips: int):
    """The model, hardware preset and batch the checked flags name.

    Without ``--batch`` (``recovery`` has none) the batch is the
    weak-scaling one, ``chips / 2``.
    """
    from repro.hw import get_preset
    from repro.models import get_model

    batch = getattr(args, "batch", None) or max(1, chips // 2)
    return get_model(args.model), get_preset(args.hw), batch


def _cmd_tune(args: argparse.Namespace) -> int:
    """Run the two-phase autotuner (Section 3.2)."""
    model, hw, batch = _cluster(args, args.chips)
    from repro.experiments.common import render_table
    from repro.service import TuneRequest

    result = TuneRequest(
        model=model, batch=batch, chips=args.chips, hw=hw
    ).run()
    print(
        f"{model.name}: {args.chips} chips ({hw.name}), batch {batch}\n"
        f"chosen mesh: {result.mesh}; estimated FC block "
        f"{result.block_seconds * 1e3:.2f} ms\n"
    )
    print(render_table(
        ["layer", "pass", "dataflow", "S"],
        [(t.layer_name, t.plan.pass_name, t.plan.dataflow.name, t.slices)
         for t in result.passes],
    ))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Choose the mesh shape minimizing a tail quantile of the simulated
    block time over a seeded ensemble of fault plans (stragglers,
    degraded links, jitter, outages).
    """
    model, hw, batch = _cluster(args, args.chips)
    from repro.experiments.common import render_table
    from repro.faults import FaultSpec
    from repro.service import TuneRequest

    try:
        spec = FaultSpec(
            stragglers=args.stragglers, straggler_slowdown=args.straggler_slowdown,
            degraded_links=args.degraded_links, link_slowdown=args.link_slowdown,
            launch_jitter=args.jitter, outage_rate=args.outage_rate,
            seed=args.seed,
        )
        result = TuneRequest(
            model=model, batch=batch, chips=args.chips, hw=hw, mode="robust",
            spec=spec, ensemble=args.ensemble, quantile=args.quantile,
            algorithm=args.algorithm,
        ).run()
    except ValueError as exc:
        return _fail(exc)
    pct = f"p{args.quantile * 100:g}"
    print(
        f"{model.name}: {args.chips} chips ({hw.name}), batch {batch}, "
        f"{args.algorithm}\n"
        f"fault spec: {args.stragglers} straggler(s) up to "
        f"{args.straggler_slowdown:g}x, {args.degraded_links} degraded "
        f"link(s) up to {args.link_slowdown:g}x, jitter {args.jitter:g}s, "
        f"outage rate {args.outage_rate:g} (seed {args.seed}, "
        f"{args.ensemble} plans)\n"
        f"robust mesh: {result.mesh}; {pct} FC block "
        f"{result.robust_seconds * 1e3:.2f} ms "
        f"(mean {result.mean_seconds * 1e3:.2f} ms, clean "
        f"{result.nominal_seconds * 1e3:.2f} ms, "
        f"inflation {result.inflation:.3f}x)\n"
    )
    print(render_table(
        ["mesh", f"{pct} block (ms)"],
        [(f"{rows}x{cols}", seconds * 1e3)
         for (rows, cols), seconds in sorted(result.per_mesh_robust.items())],
    ))
    return 0


#: Cross-flag requirement of ``recovery`` and ``elastic``.
_SURVIVES_A_DEAD_CHIP = "need at least a 2x2 mesh to survive a dead chip"


def _cmd_recovery(args: argparse.Namespace) -> int:
    """Compare end-to-end goodput of checkpoint-restart against
    degraded-mesh continuation: tune the model at its weak-scaling batch
    (chips / 2), re-tune it on the torus surviving one dead chip, and
    combine both step times with the Young/Daly checkpoint model.
    """
    if args.chips < 4:
        return _bad_flag(
            "recovery", "--chips", args.chips, _SURVIVES_A_DEAD_CHIP
        )
    model, hw, batch = _cluster(args, args.chips)
    from repro.experiments import ablation_recovery
    from repro.experiments.common import GridPointError, render_table

    try:
        rows = ablation_recovery.CAMPAIGN.run(ablation_recovery.points(
            model=model, sizes=(args.chips,), hw=hw,
            chip_mtbf_hours=args.chip_mtbf_hours,
            repair_minutes=args.repair_minutes,
            checkpoint_seconds=args.checkpoint_seconds,
            restart_seconds=args.restart_seconds,
        ), jobs=1)
    except (GridPointError, ValueError) as exc:
        return _fail(exc)
    if not rows:
        return _fail(f"meshslice recovery: no tunable mesh for {args.chips} chips")
    row = rows[0]
    print(
        f"{model.name}: {args.chips} chips ({hw.name}), batch {batch}\n"
        f"cluster MTBF {row.cluster_mtbf_hours:.1f} h "
        f"(chip MTBF {args.chip_mtbf_hours:g} h), repair "
        f"{args.repair_minutes:g} min, checkpoint "
        f"{args.checkpoint_seconds:g} s + restart {args.restart_seconds:g} s\n"
        f"full mesh {row.mesh[0]}x{row.mesh[1]}: step {row.step_ms:.1f} ms; "
        f"degraded {row.degraded_mesh[0]}x{row.degraded_mesh[1]} "
        f"(dropped {row.dropped}): step {row.degraded_step_ms:.1f} ms "
        f"({row.degraded_slowdown:.2f}x)\n"
        f"Young/Daly checkpoint interval: {row.checkpoint_interval_s:.0f} s\n"
    )
    estimates = [
        (name, goodput)
        for name, goodput in (("restart", row.restart_goodput),
                              ("degrade", row.degrade_goodput))
        if args.policy in (name, "both")
    ]
    print(render_table(
        ["policy", "goodput", "effective step (ms)"],
        [(name, f"{goodput * 100:.2f}%", row.step_ms / goodput)
         for name, goodput in estimates],
    ))
    if len(estimates) == 2:
        gap = (row.degrade_goodput - row.restart_goodput) * 100
        print(f"\nbest policy: {row.best_policy} ({gap:+.2f} points)")
    return 0


def _cmd_elastic(args: argparse.Namespace) -> int:
    """Simulate a multi-day training run under chip failures: tune the
    model on the full torus, then replay a seeded failure/repair history
    under restart, degrade, replace-from-spares, or reshape policies —
    charging checkpoint rollback and the simulated reshard-migration
    program for every reconfiguration — and compare the simulated
    goodput against the closed-form policy math.
    """
    if args.events is not None and args.policy == "all":
        return _bad_flag(
            "elastic", "--events", args.events,
            "needs a single --policy, not 'all'",
        )
    shape = _shape(args.mesh)
    if shape[0] * shape[1] < 4:
        return _bad_flag("elastic", "--mesh", args.mesh, _SURVIVES_A_DEAD_CHIP)
    model, hw, batch = _cluster(args, shape[0] * shape[1])
    from repro.experiments.common import render_table
    from repro.mesh import Mesh2D
    from repro.recovery import (
        POLICIES, ClusterReliability, LifetimeSpec, TunedElasticPlanner,
        simulate_lifetime,
    )

    planner = TunedElasticPlanner(
        model, batch, hw, Mesh2D(*shape), plane=args.plane
    )
    try:
        full_mesh, step = planner.full()
    except ValueError as exc:
        return _fail(exc)
    reliability = ClusterReliability(
        chip_mtbf=args.chip_mtbf_hours * 3600.0,
        chips=full_mesh.size,
        repair_seconds=args.repair_minutes * 60.0,
    )
    policies = POLICIES if args.policy == "all" else (args.policy,)
    print(
        f"{model.name}: {full_mesh.rows}x{full_mesh.cols} ({hw.name}), "
        f"batch {batch}, block {step * 1e3:.1f} ms\n"
        f"cluster MTBF {reliability.mtbf / 3600.0:.1f} h "
        f"(chip MTBF {args.chip_mtbf_hours:g} h), repair "
        f"{args.repair_minutes:g} min, checkpoint "
        f"{args.checkpoint_seconds:g} s + restart {args.restart_seconds:g} s\n"
        f"{args.duration_days:g} simulated days, seed {args.seed}, "
        f"{args.plane} migrations\n"
    )
    rows = []
    results = {}
    for policy in policies:
        result = simulate_lifetime(
            planner, reliability,
            LifetimeSpec(policy=policy, duration_days=args.duration_days,
                         spares=args.spares, seed=args.seed),
            args.checkpoint_seconds, args.restart_seconds,
        )
        results[policy] = result
        rows.append(
            (policy, f"{result.goodput * 100:.2f}%", result.failures,
             result.transitions, result.spares_consumed,
             result.exhaustions, result.min_running,
             f"{result.idle_seconds / 3600.0:.1f}")
        )
    print(render_table(
        ["policy", "goodput", "failures", "transitions", "spares used",
         "exhausted", "min chips", "idle (h)"],
        rows,
    ))
    if len(results) > 1:
        best = max(results, key=lambda name: results[name].goodput)
        print(f"\nbest policy: {best}")
    if args.events:
        result = results[policies[0]]
        with open(args.events, "w") as handle:
            handle.write(result.event_log_jsonl())
        print(f"\nwrote {len(result.events)} events to {args.events}")
    return 0


def _cmd_sdc(args: argparse.Namespace) -> int:
    """Inject seeded bit flips into the functional 2D GeMM with and without
    ABFT checksums, and report escape counts, correction statistics, and
    the simulated protection overhead per (rate, mesh) grid point.
    """
    from repro.experiments import ablation_sdc
    from repro.hw import get_preset

    hw = get_preset(args.hw)
    # Only what the user set: the grid's defaults are points()'s own.
    given = {dest: getattr(args, dest) for dest in getattr(args, "given", ())}
    if args.rate:
        given["rates"] = tuple(args.rate)
    if args.mesh:
        given["meshes"] = [_shape(spec) for spec in args.mesh]
    rows = ablation_sdc.CAMPAIGN.run(
        ablation_sdc.points(hw=hw, **given), jobs=args.jobs
    )
    print(
        f"{args.algorithm} under silent data corruption ({hw.name}, "
        f"{rows[0].trials} trials/point, seed "
        f"{given.get('seed', ablation_sdc.DEFAULT_SEED)})\n"
    )
    print(ablation_sdc.table(rows))
    return 0


#: Per-run derived metrics a handler wants included in the command's
#: ``--metrics`` export (filled by ``profile``; others export only the
#: registry and cache counters).
_RUN_METRICS: List[object] = []


def _cmd_profile(args: argparse.Namespace) -> int:
    """Simulate one transformer block at the algorithm's optimal mesh shape
    and report per-resource utilization, the compute/communication
    overlap fraction, the communication breakdown, queue waits, and
    memoization hit rates.
    """
    model, hw, batch = _cluster(args, args.chips)
    from repro.obs.profile import profile_block

    report = profile_block(model, batch, args.chips, hw, algorithm=args.algorithm)
    if report is None:
        return _fail(f"meshslice profile: {args.algorithm} cannot run on "
                     f"{args.chips} chips")
    _RUN_METRICS.append(report.metrics)
    print(report.render())
    return 0


def _describe_result(result) -> str:
    """One output line per served query."""
    from repro.autotuner.search import RobustTuningResult, TuningResult

    if isinstance(result, TuningResult):
        return f"mesh {result.mesh}; block {result.block_seconds * 1e3:.3f} ms"
    if isinstance(result, RobustTuningResult):
        return (
            f"mesh {result.mesh}; p{result.quantile * 100:g} block "
            f"{result.robust_seconds * 1e3:.3f} ms "
            f"(inflation {result.inflation:.3f}x)"
        )
    # DegradedRetune
    return (
        f"degraded mesh {result.result.mesh} (dropped {result.dropped}); "
        f"block {result.result.block_seconds * 1e3:.3f} ms"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the tuning service: JSONL TuneRequest queries (one object per
    line; see docs/service.md) are answered through the in-memory cache,
    the on-disk plan store, and finally a tuning search. Queries come
    from stdin by default, or from a file with --replay (one-shot mode).
    """
    bounded = (
        args.store_max_records is not None or args.store_max_bytes is not None
    )
    if bounded and args.store is None:
        return _fail("meshslice serve: --store-max-records/--store-max-bytes "
                     "require --store")
    import json

    from repro.service import TuneRequest, TunerService

    if args.replay is not None:
        try:
            with open(args.replay) as handle:
                lines = handle.readlines()
        except OSError as exc:
            return _fail(f"meshslice serve: {exc}")
    else:
        lines = sys.stdin.readlines()
    requests = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            requests.append(TuneRequest.from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            source = args.replay or "<stdin>"
            return _fail(f"meshslice serve: {source}:{lineno}: bad query: {exc}")
    if not requests:
        return _fail("meshslice serve: no queries")
    store = args.store
    if bounded:
        from repro.service import PlanStore

        store = PlanStore(args.store, max_records=args.store_max_records,
                          max_bytes=args.store_max_bytes)
    with TunerService(store, workers=args.workers) as service:
        for _ in range(args.repeat):
            results = service.serve_many(requests)
        for request, result in zip(requests, results):
            print(
                f"{request.mode} {request.model.name} "
                f"chips={request.canonical().chips}: "
                f"{_describe_result(result)}"
            )
        stats = service.stats()
    print(
        f"\nserved {int(stats['requests'])} request(s): "
        f"{int(stats['served_from_memory'])} from memory, "
        f"{int(stats['coalesced_inflight'])} coalesced, "
        f"{int(stats['store_hits'])} store hit(s) "
        f"(hit rate {stats['store_hit_rate']:.2f}), "
        f"p50 {stats['latency_p50_ms']:.1f} ms, "
        f"p95 {stats['latency_p95_ms']:.1f} ms"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run an experiment's grid as a campaign: every grid point appends a
    durable record to an append-only JSONL store, so a killed sweep
    resumes where it stopped, transient failures retry with backoff, and
    permanent failures are recorded instead of aborting the grid
    (docs/campaign.md).
    """
    import os

    action = getattr(args, "campaign_command", None)
    if action is None:
        return _fail("usage: meshslice campaign {run,resume,status,report} ...")
    from repro.campaign import (
        CampaignRunner, CampaignStore, get_campaign, report, status,
    )

    try:
        store = CampaignStore(args.store)
    except (OSError, ValueError) as exc:
        return _fail(f"meshslice campaign: {exc}")
    name = getattr(args, "experiment", None)
    spec = None
    if name is not None:
        try:
            spec = get_campaign(name)
        except KeyError as exc:
            return _fail(f"meshslice campaign: {exc.args[0]}")
    if action in ("resume", "status", "report"):
        wanted = [name] if name is not None else store.campaigns()
        if not wanted:
            return _fail(
                f"meshslice campaign {action}: no campaigns in {args.store}"
            )
        if name is not None and not os.path.exists(store.path_for(name)):
            return _fail(f"meshslice campaign {action}: no store file for "
                         f"{name!r} in {args.store}")
    if action in ("run", "resume"):
        runner = CampaignRunner(
            store, name, spec.point,
            retries=args.retries, backoff_s=args.backoff,
            retry_failed=args.retry_failed, jobs=args.jobs,
        )
        summary = runner.run(spec.points())
        print(
            f"campaign {name}: {summary.total} point(s) "
            f"({summary.skipped} already stored); ran {summary.ran}, "
            f"ok {summary.ok}, failed {summary.failed}"
        )
        if summary.quarantined:
            print(
                f"quarantined {summary.quarantined} corrupt store "
                f"chunk(s) (see {store.quarantine_path(name)})"
            )
        if not summary.complete:
            print(
                f"meshslice campaign {action}: {name} is incomplete",
                file=sys.stderr,
            )
            return 1
        return 0
    if action == "status":
        print("\n\n".join(status(store, each).render() for each in wanted))
        return 0
    print(report(store, name, spec))
    return 0


def _write_metrics(path: str) -> None:
    """Dump everything collected during the command as schema JSONL."""
    from repro.obs.export import collect_records, write_jsonl

    write_jsonl(collect_records(run_metrics=_RUN_METRICS), path)


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one or more experiment reproductions."""
    if args.jobs is not None:
        # Experiment grids read the worker count from the
        # environment, so one flag reaches every grid they run.
        import os

        from repro.experiments.common import JOBS_ENV

        os.environ[JOBS_ENV] = str(args.jobs)
    names = [
        each for name in args.experiments
        for each in (sorted(EXPERIMENTS) if name == "all" else [name])
    ]
    for name in names:
        start = time.time()
        try:
            report = run_experiment(name)
        except KeyError as exc:
            return _fail(exc)
        print(f"=== {name} " + "=" * max(0, 70 - len(name)))
        print(report)
        print(f"--- {name} done in {time.time() - start:.1f}s\n")
    return 0


_SWEEP = (
    _flag("experiment", help="experiment name from 'list'"),
    _flag("--store", metavar="DIR", required=True,
          help="campaign-store directory (created if missing)"),
    "--jobs",
    _flag("--retries", int, 2, NON_NEGATIVE, "retry attempts per failing point"),
    _flag("--backoff", float, 0.05, NON_NEGATIVE,
          "base retry backoff, seconds; doubles per attempt"),
    _flag("--retry-failed", action="store_true",
          help="re-run points whose stored record is 'failed' "
               "(appends superseding records)"),
    "--metrics",
)
_STORE = _flag("--store", metavar="DIR", required=True,
               help="campaign-store directory")

#: Every subcommand: name -> (handler, help, flags); the handler's
#: docstring is its description. A flag is a :data:`SHARED` option or a
#: :func:`_flag`; a ``{dest: table}`` in place of the flags nests
#: subcommands (whose handler is their parent's).
SUBCOMMANDS = {
    "run": (_cmd_run, "run experiments by name ('all' for every one)", (
        _flag("experiments", nargs="+", metavar="experiment",
              help="experiment names from 'list', or 'all'"),
        "--jobs", "--metrics",
    )),
    "list": (_cmd_list, "enumerate the available experiments", ()),
    "tune": (
        _cmd_tune, "autotune mesh shape and slice counts for a model",
        (*CLUSTER, "--metrics"),
    ),
    "faults": (
        _cmd_faults, "fault-aware robust tuning over a straggler/link ensemble", (
            *CLUSTER, "--algorithm",
            _flag("--stragglers", int, 1, NON_NEGATIVE,
                  "straggling chips per fault plan"),
            _flag("--straggler-slowdown", float, 1.5, AT_LEAST_ONE,
                  "worst-case straggler compute slowdown factor"),
            _flag("--degraded-links", int, 0, NON_NEGATIVE,
                  "degraded mesh links per fault plan"),
            _flag("--link-slowdown", float, 2.0, AT_LEAST_ONE,
                  "worst-case link bandwidth degradation factor"),
            _flag("--jitter", float, 0.0, NON_NEGATIVE,
                  "max extra collective launch latency, seconds"),
            _flag("--outage-rate", float, 0.0, FRACTION,
                  "per-transfer transient outage probability"),
            _flag("--ensemble", int, 16, AT_LEAST_ONE,
                  "number of sampled fault plans"),
            _flag("--quantile", float, 0.95,
                  _require(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
                  "tail quantile to minimize"),
            _flag("--seed", check=None, help="base seed of the fault ensemble"),
            "--metrics",
        ),
    ),
    "recovery": (
        _cmd_recovery, "goodput of recovery policies (restart vs degraded mesh)", (
            "model", "--chips", "--hw", *RELIABILITY,
            _flag("--policy", default="both",
                  choices=("restart", "degrade", "both"),
                  help="recovery policy to evaluate"),
            "--metrics",
        ),
    ),
    "elastic": (
        _cmd_elastic,
        "seeded multi-failure lifetime simulation of elastic policies", (
            "model",
            _flag("--mesh", None, "4x4", MESH_SHAPE,
                  "full torus shape, e.g. 4x4", metavar="RxC"),
            "--batch", "--hw",
            _flag("--policy", default="all",
                  choices=("restart", "degrade", "replace", "reshape", "all"),
                  help="elastic policy to simulate"),
            _flag("--spares", int, 0, NON_NEGATIVE,
                  "spare chips in the replacement pool"),
            _flag("--duration-days", float, 30.0, POSITIVE,
                  "simulated horizon in days"),
            _flag("--seed", help="seed of the failure-arrival process"),
            *RELIABILITY,
            _flag("--plane", default="onesided",
                  choices=("onesided", "collective"),
                  help="comm plane of the reshard migrations"),
            _flag("--events", metavar="PATH",
                  help="write the structured JSONL event log (requires a "
                       "single --policy, not 'all')"),
            "--metrics",
        ),
    ),
    "sdc": (
        _cmd_sdc, "silent-data-corruption sweep: ABFT protection vs escapes", (
            _flag("--rate", float, None, FRACTION,
                  "SDC rate(s) to sweep; repeatable (default: 1e-3 1e-2 0.05)",
                  action="append", metavar="R"),
            _flag("--mesh", None, None, MESH_SHAPE,
                  "mesh shape(s) to sweep, e.g. 4x4; repeatable "
                  "(default: 2x2 4x4)",
                  action="append", metavar="RxC"),
            _flag("--algorithm", check=None, action=_Given,
                  choices=("meshslice", "summa", "collective"),
                  help="distributed GeMM algorithm to protect"),
            _flag("--trials", int, 8, AT_LEAST_ONE,
                  "functional trials per grid point", action=_Given),
            _flag("--seed",
                  help="base seed of the injection ensemble (default: 2025)"),
            "--hw", "--jobs", "--metrics",
        ),
    ),
    "profile": (
        _cmd_profile, "profile one deployment point: where does the time go?", (
            *CLUSTER,
            _flag("--algorithm", help="distributed GeMM algorithm to profile"),
            "--metrics",
        ),
    ),
    "serve": (
        _cmd_serve, "serve tuning requests from a persistent plan store", (
            _flag("--store", metavar="DIR",
                  help="plan-store directory (created if missing; default: "
                       "in-memory only, nothing persists)"),
            _flag("--workers", int, 4, AT_LEAST_ONE,
                  "thread-pool width for distinct concurrent requests"),
            _flag("--replay", metavar="FILE",
                  help="one-shot mode: replay a JSONL query file and exit"),
            _flag("--repeat", int, 1, AT_LEAST_ONE,
                  "replay the query mix this many times"),
            _flag("--store-max-records", int, None, AT_LEAST_ONE,
                  "bound the plan store to N records, evicting the "
                  "least-recently-used (default: unbounded)", metavar="N"),
            _flag("--store-max-bytes", int, None, AT_LEAST_ONE,
                  "bound the plan store to B bytes of records, evicting the "
                  "least-recently-used (default: unbounded)", metavar="B"),
            "--metrics",
        ),
    ),
    "campaign": (
        _cmd_campaign, "durable, resumable experiment sweeps (crash-tolerant)",
        {"campaign_command": {
            "run": (
                None, "run a campaign (skips points already in the store)",
                _SWEEP,
            ),
            "resume": (
                None, "continue an interrupted campaign (store must exist)",
                _SWEEP,
            ),
            "status": (
                None, "summarize stored campaigns (ok/failed counts, versions)", (
                    _flag("experiment", nargs="?", help="experiment name "
                          "(default: every campaign in the store)"),
                    _STORE,
                ),
            ),
            "report": (
                None, "render the experiment's table from its stored records", (
                    _flag("experiment", help="experiment name from 'list'"),
                    _STORE,
                ),
            ),
        }},
    ),
    "models": (_cmd_models, "list the model zoo", ()),
    "presets": (_cmd_presets, "list the hardware presets", ()),
}

#: The real subcommands; anything else in command position is treated
#: as an experiment name and routed through ``run`` (legacy alias).
COMMANDS = tuple(SUBCOMMANDS)


def _declare(parser: argparse.ArgumentParser, dest: str, table) -> None:
    """Add ``table``'s subcommands to ``parser``, each flag with its check.

    A flag's help names its default unless it already says one.
    """
    sub = parser.add_subparsers(
        dest=dest, metavar="command" if dest == "command" else "action"
    )
    for name, (handler, help, flags) in table.items():
        child = sub.add_parser(
            name, help=help, description=handler.__doc__ if handler else help
        )
        if handler is not None:
            child.set_defaults(handler=handler)
        if isinstance(flags, dict):
            ((nested, nested_table),) = flags.items()
            _declare(child, nested, nested_table)
            continue
        checks = []
        for flag in flags:
            option, keywords = flag if isinstance(flag, tuple) else (flag, {})
            keywords = {**SHARED.get(option, {}), **keywords}
            check = keywords.pop("check", None)
            default = keywords.get("default")
            if default is not None and default is not False and (
                "(default" not in keywords["help"]
            ):
                keywords["help"] += " (default: %(default)s)"
            action = child.add_argument(option, **keywords)
            if check is not None:
                checks.append((child.prog[len("meshslice "):], action, check))
        child.set_defaults(checks=checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshslice",
        description="MeshSlice (ISCA 2025) reproduction toolkit",
    )
    _declare(parser, "command", SUBCOMMANDS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(normalize_argv(list(argv)))
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    code = _validate(args) or args.handler(args)
    metrics_path = getattr(args, "metrics", None)
    if code == 0 and metrics_path:
        _write_metrics(metrics_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
