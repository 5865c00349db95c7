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

Bare experiment names keep working as aliases of ``run`` —
``meshslice fig9 --jobs 8`` and ``meshslice all`` behave exactly as
they did before the subcommand interface existed.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments import EXPERIMENTS

#: The real subcommands; anything else in command position is treated
#: as an experiment name and routed through ``run`` (legacy alias).
COMMANDS = (
    "run", "list", "tune", "faults", "recovery", "elastic", "sdc",
    "profile", "serve", "campaign", "models", "presets",
)


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    """Model/cluster selection shared by ``tune`` and ``faults``."""
    parser.add_argument(
        "model", nargs="?", default=None,
        help="model name (see 'models')",
    )
    parser.add_argument(
        "--chips", type=int, default=256, help="cluster size",
    )
    parser.add_argument(
        "--batch", type=int, default=None,
        help="global batch (default: chips / 2)",
    )
    parser.add_argument(
        "--hw", default="tpuv4-sim",
        help="hardware preset name (see 'presets')",
    )


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help=(
            "write collected metrics to a JSONL file after the command "
            "(schema: docs/observability.md)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshslice",
        description="MeshSlice (ISCA 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    run = sub.add_parser(
        "run",
        help="run experiments by name ('all' for every one)",
        description="Run one or more experiment reproductions.",
    )
    run.add_argument(
        "experiments", nargs="+", metavar="experiment",
        help="experiment names from 'list', or 'all'",
    )
    run.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for experiment grids "
            "(default: REPRO_JOBS env var, then the CPU count)"
        ),
    )
    _add_metrics_argument(run)

    sub.add_parser("list", help="enumerate the available experiments")

    tune = sub.add_parser(
        "tune",
        help="autotune mesh shape and slice counts for a model",
        description="Run the two-phase autotuner (Section 3.2).",
    )
    _add_cluster_arguments(tune)
    _add_metrics_argument(tune)

    faults = sub.add_parser(
        "faults",
        help="fault-aware robust tuning over a straggler/link ensemble",
        description=(
            "Choose the mesh shape minimizing a tail quantile of the "
            "simulated block time over a seeded ensemble of fault plans "
            "(stragglers, degraded links, jitter, outages)."
        ),
    )
    _add_cluster_arguments(faults)
    faults.add_argument(
        "--algorithm", default="meshslice",
        help="distributed GeMM algorithm to simulate (default: meshslice)",
    )
    faults.add_argument(
        "--stragglers", type=int, default=1,
        help="straggling chips per fault plan (default: 1)",
    )
    faults.add_argument(
        "--straggler-slowdown", type=float, default=1.5,
        help="worst-case straggler compute slowdown factor (default: 1.5)",
    )
    faults.add_argument(
        "--degraded-links", type=int, default=0,
        help="degraded mesh links per fault plan (default: 0)",
    )
    faults.add_argument(
        "--link-slowdown", type=float, default=2.0,
        help="worst-case link bandwidth degradation factor (default: 2.0)",
    )
    faults.add_argument(
        "--jitter", type=float, default=0.0,
        help="max extra collective launch latency, seconds (default: 0)",
    )
    faults.add_argument(
        "--outage-rate", type=float, default=0.0,
        help="per-transfer transient outage probability (default: 0)",
    )
    faults.add_argument(
        "--ensemble", type=int, default=16,
        help="number of sampled fault plans (default: 16)",
    )
    faults.add_argument(
        "--quantile", type=float, default=0.95,
        help="tail quantile to minimize (default: 0.95)",
    )
    faults.add_argument(
        "--seed", type=int, default=0,
        help="base seed of the fault ensemble (default: 0)",
    )
    _add_metrics_argument(faults)

    recovery = sub.add_parser(
        "recovery",
        help="goodput of recovery policies (restart vs degraded mesh)",
        description=(
            "Compare end-to-end goodput of checkpoint-restart against "
            "degraded-mesh continuation: tune the model, re-tune it on "
            "the torus surviving one dead chip, and combine both step "
            "times with the Young/Daly checkpoint model."
        ),
    )
    _add_cluster_arguments(recovery)
    recovery.add_argument(
        "--chip-mtbf-hours", type=float, default=2000.0,
        help="per-chip mean time between failures, hours (default: 2000)",
    )
    recovery.add_argument(
        "--repair-minutes", type=float, default=60.0,
        help="chip repair/replacement time, minutes (default: 60)",
    )
    recovery.add_argument(
        "--checkpoint-seconds", type=float, default=60.0,
        help="checkpoint write cost, seconds (default: 60)",
    )
    recovery.add_argument(
        "--restart-seconds", type=float, default=180.0,
        help="restart (reload + reschedule) cost, seconds (default: 180)",
    )
    recovery.add_argument(
        "--policy", choices=("restart", "degrade", "both"), default="both",
        help="recovery policy to evaluate (default: both)",
    )
    _add_metrics_argument(recovery)

    elastic = sub.add_parser(
        "elastic",
        help="seeded multi-failure lifetime simulation of elastic policies",
        description=(
            "Simulate a multi-day training run under chip failures: "
            "tune the model on the full torus, then replay a seeded "
            "failure/repair history under restart, degrade, "
            "replace-from-spares, or reshape policies — charging "
            "checkpoint rollback and the simulated reshard-migration "
            "program for every reconfiguration — and compare the "
            "simulated goodput against the closed-form policy math."
        ),
    )
    elastic.add_argument(
        "model", nargs="?", default=None,
        help="model name (see 'models')",
    )
    elastic.add_argument(
        "--mesh", default="4x4", metavar="RxC",
        help="full torus shape, e.g. 4x4 (default: 4x4)",
    )
    elastic.add_argument(
        "--batch", type=int, default=None,
        help="global batch (default: chips / 2)",
    )
    elastic.add_argument(
        "--hw", default="tpuv4-sim",
        help="hardware preset name (see 'presets')",
    )
    elastic.add_argument(
        "--policy",
        choices=("restart", "degrade", "replace", "reshape", "all"),
        default="all",
        help="elastic policy to simulate (default: all)",
    )
    elastic.add_argument(
        "--spares", type=int, default=0,
        help="spare chips in the replacement pool (default: 0)",
    )
    elastic.add_argument(
        "--duration-days", type=float, default=30.0,
        help="simulated horizon in days (default: 30)",
    )
    elastic.add_argument(
        "--seed", type=int, default=0,
        help="seed of the failure-arrival process (default: 0)",
    )
    elastic.add_argument(
        "--chip-mtbf-hours", type=float, default=2000.0,
        help="per-chip mean time between failures, hours (default: 2000)",
    )
    elastic.add_argument(
        "--repair-minutes", type=float, default=60.0,
        help="chip repair/replacement time, minutes (default: 60)",
    )
    elastic.add_argument(
        "--checkpoint-seconds", type=float, default=60.0,
        help="checkpoint write cost, seconds (default: 60)",
    )
    elastic.add_argument(
        "--restart-seconds", type=float, default=180.0,
        help="restart (reload + reschedule) cost, seconds (default: 180)",
    )
    elastic.add_argument(
        "--plane", choices=("onesided", "collective"), default="onesided",
        help="comm plane of the reshard migrations (default: onesided)",
    )
    elastic.add_argument(
        "--events", metavar="PATH", default=None,
        help=(
            "write the structured JSONL event log (requires a single "
            "--policy, not 'all')"
        ),
    )
    _add_metrics_argument(elastic)

    sdc = sub.add_parser(
        "sdc",
        help="silent-data-corruption sweep: ABFT protection vs escapes",
        description=(
            "Inject seeded bit flips into the functional 2D GeMM with "
            "and without ABFT checksums, and report escape counts, "
            "correction statistics, and the simulated protection "
            "overhead per (rate, mesh) grid point."
        ),
    )
    sdc.add_argument(
        "--rate", type=float, action="append", default=None,
        metavar="R",
        help="SDC rate(s) to sweep; repeatable (default: 1e-3 1e-2 0.05)",
    )
    sdc.add_argument(
        "--mesh", action="append", default=None, metavar="RxC",
        help="mesh shape(s) to sweep, e.g. 4x4; repeatable "
             "(default: 2x2 4x4)",
    )
    sdc.add_argument(
        "--algorithm", default="meshslice",
        choices=("meshslice", "summa", "collective"),
        help="distributed GeMM algorithm to protect (default: meshslice)",
    )
    sdc.add_argument(
        "--trials", type=int, default=8,
        help="functional trials per grid point (default: 8)",
    )
    sdc.add_argument(
        "--seed", type=int, default=0,
        help="base seed of the injection ensemble (default: 0)",
    )
    sdc.add_argument(
        "--hw", default="tpuv4-sim",
        help="hardware preset name (see 'presets')",
    )
    sdc.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweep grid",
    )
    _add_metrics_argument(sdc)

    profile = sub.add_parser(
        "profile",
        help="profile one deployment point: where does the time go?",
        description=(
            "Simulate one transformer block at the algorithm's optimal "
            "mesh shape and report per-resource utilization, the "
            "compute/communication overlap fraction, the communication "
            "breakdown, queue waits, and memoization hit rates."
        ),
    )
    _add_cluster_arguments(profile)
    profile.add_argument(
        "--algorithm", default="meshslice",
        help="distributed GeMM algorithm to profile (default: meshslice)",
    )
    _add_metrics_argument(profile)

    serve = sub.add_parser(
        "serve",
        help="serve tuning requests from a persistent plan store",
        description=(
            "Run the tuning service: JSONL TuneRequest queries (one "
            "object per line; see docs/service.md) are answered through "
            "the in-memory cache, the on-disk plan store, and finally a "
            "tuning search. Queries come from stdin by default, "
            "or from a file with --replay (one-shot mode)."
        ),
    )
    serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="plan-store directory (created if missing; default: "
             "in-memory only, nothing persists)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="thread-pool width for distinct concurrent requests "
             "(default: 4)",
    )
    serve.add_argument(
        "--replay", metavar="FILE", default=None,
        help="one-shot mode: replay a JSONL query file and exit",
    )
    serve.add_argument(
        "--repeat", type=int, default=1,
        help="replay the query mix this many times (default: 1)",
    )
    serve.add_argument(
        "--store-max-records", type=int, default=None, metavar="N",
        help="bound the plan store to N records, evicting the "
             "least-recently-used (default: unbounded)",
    )
    serve.add_argument(
        "--store-max-bytes", type=int, default=None, metavar="B",
        help="bound the plan store to B bytes of records, evicting the "
             "least-recently-used (default: unbounded)",
    )
    _add_metrics_argument(serve)

    campaign = sub.add_parser(
        "campaign",
        help="durable, resumable experiment sweeps (crash-tolerant)",
        description=(
            "Run an experiment's grid as a campaign: every grid point "
            "appends a durable record to an append-only JSONL store, so "
            "a killed sweep resumes where it stopped, transient "
            "failures retry with backoff, and permanent failures are "
            "recorded instead of aborting the grid (docs/campaign.md)."
        ),
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", metavar="action"
    )
    for action, blurb in (
        ("run", "run a campaign (skips points already in the store)"),
        ("resume", "continue an interrupted campaign (store must exist)"),
    ):
        action_parser = campaign_sub.add_parser(
            action, help=blurb, description=blurb,
        )
        action_parser.add_argument(
            "experiment", help="experiment name from 'list'",
        )
        action_parser.add_argument(
            "--store", metavar="DIR", required=True,
            help="campaign-store directory (created if missing)",
        )
        action_parser.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes for the grid "
                 "(default: REPRO_JOBS env var, then the CPU count)",
        )
        action_parser.add_argument(
            "--retries", type=int, default=2,
            help="retry attempts per failing point (default: 2)",
        )
        action_parser.add_argument(
            "--backoff", type=float, default=0.05,
            help="base retry backoff, seconds; doubles per attempt "
                 "(default: 0.05)",
        )
        action_parser.add_argument(
            "--retry-failed", action="store_true",
            help="re-run points whose stored record is 'failed' "
                 "(appends superseding records)",
        )
        _add_metrics_argument(action_parser)
    status_parser = campaign_sub.add_parser(
        "status",
        help="summarize stored campaigns (ok/failed counts, versions)",
    )
    status_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment name (default: every campaign in the store)",
    )
    status_parser.add_argument(
        "--store", metavar="DIR", required=True,
        help="campaign-store directory",
    )
    report_parser = campaign_sub.add_parser(
        "report",
        help="render the experiment's table from its stored records",
    )
    report_parser.add_argument(
        "experiment", help="experiment name from 'list'",
    )
    report_parser.add_argument(
        "--store", metavar="DIR", required=True,
        help="campaign-store directory",
    )

    sub.add_parser("models", help="list the model zoo")
    sub.add_parser("presets", help="list the hardware presets")
    return parser


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


def _cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:22s} {doc}")
    return 0


def _cmd_models() -> int:
    from repro.experiments.common import render_table
    from repro.models import get_model, model_names

    rows = []
    for name in model_names():
        model = get_model(name)
        rows.append(
            (
                name,
                model.num_layers,
                model.hidden,
                model.ffn_dim,
                f"{model.approx_params / 1e9:.0f}B (FC)",
            )
        )
    print(render_table(["model", "layers", "hidden", "ffn", "params"], rows))
    return 0


def _cmd_presets() -> int:
    from repro.experiments.common import render_table
    from repro.hw import get_preset, preset_names

    rows = []
    for name in preset_names():
        hw = get_preset(name)
        rows.append(
            (
                name,
                f"{hw.peak_flops / 1e12:.0f} TF",
                f"{hw.link_bandwidth / 1e9:.0f} GB/s x{hw.links_per_direction}",
                hw.network,
                "yes" if hw.overlap_collectives else "no",
            )
        )
    print(
        render_table(
            ["preset", "peak", "link bw", "network", "AG/RdS overlap"], rows
        )
    )
    return 0


def _resolve_cluster(args: argparse.Namespace):
    """Shared model/hw/batch resolution of ``tune`` and ``faults``.

    Returns ``(model, hw, batch)`` or an exit code on bad input.
    """
    if args.model is None:
        print(
            f"usage: meshslice {args.command} <model> "
            "[--chips N] [--batch B] [--hw P]",
            file=sys.stderr,
        )
        return 2
    from repro.hw import get_preset
    from repro.models import get_model

    try:
        model = get_model(args.model)
        hw = get_preset(args.hw)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    batch = args.batch if args.batch is not None else max(1, args.chips // 2)
    return model, hw, batch


def _cmd_tune(args: argparse.Namespace) -> int:
    bad = _check_flags(
        "tune",
        [
            ("--chips", args.chips, args.chips >= 1, "must be >= 1"),
            ("--batch", args.batch,
             args.batch is None or args.batch >= 1, "must be >= 1"),
        ],
    )
    if bad:
        return bad
    resolved = _resolve_cluster(args)
    if isinstance(resolved, int):
        return resolved
    model, hw, batch = resolved
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
    print(
        render_table(
            ["layer", "pass", "dataflow", "S"],
            [
                (t.layer_name, t.plan.pass_name, t.plan.dataflow.name, t.slices)
                for t in result.passes
            ],
        )
    )
    return 0


def _bad_flag(command: str, flag: str, value: object, requirement: str) -> int:
    """One-line exit-2 diagnostic naming the offending flag."""
    print(
        f"meshslice {command}: invalid {flag} {value} ({requirement})",
        file=sys.stderr,
    )
    return 2


def _check_flags(command: str, checks) -> int:
    """Validate ``(flag, value, ok, requirement)`` tuples; 0 if all pass."""
    for flag, value, ok, requirement in checks:
        if not ok:
            return _bad_flag(command, flag, value, requirement)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    bad = _check_flags(
        "faults",
        [
            ("--stragglers", args.stragglers,
             args.stragglers >= 0, "must be non-negative"),
            ("--straggler-slowdown", args.straggler_slowdown,
             args.straggler_slowdown >= 1.0, "must be >= 1"),
            ("--degraded-links", args.degraded_links,
             args.degraded_links >= 0, "must be non-negative"),
            ("--link-slowdown", args.link_slowdown,
             args.link_slowdown >= 1.0, "must be >= 1"),
            ("--jitter", args.jitter,
             args.jitter >= 0.0, "must be non-negative"),
            ("--outage-rate", args.outage_rate,
             0.0 <= args.outage_rate <= 1.0, "must be in [0, 1]"),
            ("--ensemble", args.ensemble,
             args.ensemble >= 1, "must be >= 1"),
            ("--quantile", args.quantile,
             0.0 < args.quantile <= 1.0, "must be in (0, 1]"),
        ],
    )
    if bad:
        return bad
    resolved = _resolve_cluster(args)
    if isinstance(resolved, int):
        return resolved
    model, hw, batch = resolved
    from repro.experiments.common import render_table
    from repro.faults import FaultSpec
    from repro.service import TuneRequest

    try:
        spec = FaultSpec(
            stragglers=args.stragglers,
            straggler_slowdown=args.straggler_slowdown,
            degraded_links=args.degraded_links,
            link_slowdown=args.link_slowdown,
            launch_jitter=args.jitter,
            outage_rate=args.outage_rate,
            seed=args.seed,
        )
        result = TuneRequest(
            model=model, batch=batch, chips=args.chips, hw=hw,
            mode="robust", spec=spec,
            ensemble=args.ensemble,
            quantile=args.quantile,
            algorithm=args.algorithm,
        ).run()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
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
    print(
        render_table(
            ["mesh", f"{pct} block (ms)"],
            [
                (f"{rows}x{cols}", seconds * 1e3)
                for (rows, cols), seconds in sorted(
                    result.per_mesh_robust.items()
                )
            ],
        )
    )
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    bad = _check_flags(
        "recovery",
        [
            ("--chip-mtbf-hours", args.chip_mtbf_hours,
             args.chip_mtbf_hours > 0.0, "must be positive"),
            ("--repair-minutes", args.repair_minutes,
             args.repair_minutes >= 0.0, "must be non-negative"),
            ("--checkpoint-seconds", args.checkpoint_seconds,
             args.checkpoint_seconds > 0.0, "must be positive"),
            ("--restart-seconds", args.restart_seconds,
             args.restart_seconds >= 0.0, "must be non-negative"),
            ("--chips", args.chips, args.chips >= 4,
             "need at least a 2x2 mesh to survive a dead chip"),
        ],
    )
    if bad:
        return bad
    resolved = _resolve_cluster(args)
    if isinstance(resolved, int):
        return resolved
    model, hw, batch = resolved
    from repro.experiments.ablation_recovery import point
    from repro.experiments.common import GridPointError, render_table

    try:
        rows = point(
            (args.chips, model, hw, args.chip_mtbf_hours,
             args.repair_minutes, args.checkpoint_seconds,
             args.restart_seconds)
        )
    except (GridPointError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not rows:
        print(
            f"meshslice recovery: no tunable mesh for {args.chips} chips",
            file=sys.stderr,
        )
        return 2
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
    estimates = []
    if args.policy in ("restart", "both"):
        estimates.append(("restart", row.restart_goodput))
    if args.policy in ("degrade", "both"):
        estimates.append(("degrade", row.degrade_goodput))
    print(
        render_table(
            ["policy", "goodput", "effective step (ms)"],
            [
                (name, f"{goodput * 100:.2f}%", row.step_ms / goodput)
                for name, goodput in estimates
            ],
        )
    )
    if len(estimates) == 2:
        gap = (row.degrade_goodput - row.restart_goodput) * 100
        print(f"\nbest policy: {row.best_policy} ({gap:+.2f} points)")
    return 0


def _cmd_elastic(args: argparse.Namespace) -> int:
    bad = _check_flags(
        "elastic",
        [
            ("--spares", args.spares, args.spares >= 0,
             "must be non-negative"),
            ("--duration-days", args.duration_days,
             args.duration_days > 0.0, "must be positive"),
            ("--seed", args.seed, args.seed >= 0, "must be non-negative"),
            ("--chip-mtbf-hours", args.chip_mtbf_hours,
             args.chip_mtbf_hours > 0.0, "must be positive"),
            ("--repair-minutes", args.repair_minutes,
             args.repair_minutes >= 0.0, "must be non-negative"),
            ("--checkpoint-seconds", args.checkpoint_seconds,
             args.checkpoint_seconds > 0.0, "must be positive"),
            ("--restart-seconds", args.restart_seconds,
             args.restart_seconds >= 0.0, "must be non-negative"),
            ("--events", args.events,
             args.events is None or args.policy != "all",
             "needs a single --policy, not 'all'"),
        ],
    )
    if bad:
        return bad
    if args.model is None:
        print(
            "usage: meshslice elastic <model> [--mesh RxC] [--batch B] "
            "[--hw P] [--policy NAME]",
            file=sys.stderr,
        )
        return 2
    from repro.hw import get_preset
    from repro.models import get_model

    try:
        model = get_model(args.model)
        hw = get_preset(args.hw)
        (shape,) = _parse_mesh_shapes([args.mesh])
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    from repro.experiments.common import render_table
    from repro.mesh import Mesh2D
    from repro.recovery import (
        POLICIES,
        ClusterReliability,
        LifetimeSpec,
        TunedElasticPlanner,
        simulate_lifetime,
    )

    mesh = Mesh2D(*shape)
    batch = args.batch if args.batch is not None else max(1, mesh.size // 2)
    if mesh.size < 4:
        return _bad_flag(
            "elastic", "--mesh", args.mesh,
            "need at least a 2x2 mesh to survive a dead chip",
        )
    planner = TunedElasticPlanner(model, batch, hw, mesh, plane=args.plane)
    try:
        full_mesh, step = planner.full()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
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
            planner,
            reliability,
            LifetimeSpec(
                policy=policy,
                duration_days=args.duration_days,
                spares=args.spares,
                seed=args.seed,
            ),
            args.checkpoint_seconds,
            args.restart_seconds,
        )
        results[policy] = result
        rows.append(
            (policy, f"{result.goodput * 100:.2f}%", result.failures,
             result.transitions, result.spares_consumed,
             result.exhaustions, result.min_running,
             f"{result.idle_seconds / 3600.0:.1f}")
        )
    print(
        render_table(
            ["policy", "goodput", "failures", "transitions", "spares used",
             "exhausted", "min chips", "idle (h)"],
            rows,
        )
    )
    if len(results) > 1:
        best = max(results, key=lambda name: results[name].goodput)
        print(f"\nbest policy: {best}")
    if args.events:
        result = results[policies[0]]
        with open(args.events, "w") as handle:
            handle.write(result.event_log_jsonl())
        print(f"\nwrote {len(result.events)} events to {args.events}")
    return 0


def _parse_mesh_shapes(specs) -> List:
    """Parse repeatable ``RxC`` mesh flags into shape tuples."""
    shapes = []
    for spec in specs:
        parts = spec.lower().split("x")
        if len(parts) != 2 or not all(p.isdigit() and int(p) > 0 for p in parts):
            raise ValueError(f"invalid mesh shape {spec!r} (expected RxC)")
        shapes.append((int(parts[0]), int(parts[1])))
    return shapes


def _cmd_sdc(args: argparse.Namespace) -> int:
    rates = tuple(args.rate) if args.rate else None
    bad = _check_flags(
        "sdc",
        [
            ("--trials", args.trials, args.trials >= 1, "must be >= 1"),
            ("--rate", rates,
             rates is None or all(0.0 <= r <= 1.0 for r in rates),
             "every rate must be in [0, 1]"),
            ("--jobs", args.jobs,
             args.jobs is None or args.jobs >= 1, "must be >= 1"),
            ("--seed", args.seed, args.seed >= 0, "must be non-negative"),
        ],
    )
    if bad:
        return bad
    from repro.experiments import ablation_sdc
    from repro.hw import get_preset

    try:
        hw = get_preset(args.hw)
        meshes = (
            _parse_mesh_shapes(args.mesh) if args.mesh
            else list(ablation_sdc.MESHES)
        )
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    grid = ablation_sdc.points(
        rates=rates or ablation_sdc.RATES,
        meshes=meshes,
        trials=args.trials,
        seed=args.seed if args.seed else ablation_sdc.DEFAULT_SEED,
        algorithm=args.algorithm,
        hw=hw,
    )
    rows = ablation_sdc.CAMPAIGN.run(grid, jobs=args.jobs)
    from repro.experiments.common import render_table

    print(
        f"{args.algorithm} under silent data corruption ({hw.name}, "
        f"{args.trials} trials/point, seed "
        f"{args.seed if args.seed else ablation_sdc.DEFAULT_SEED})\n"
    )
    print(
        render_table(
            ["rate", "mesh", "flips", "escapes (bare)", "escapes (abft)",
             "corrected", "recomputed", "abft overhead"],
            [(f"{r.rate:g}", f"{r.mesh[0]}x{r.mesh[1]}", r.flips,
              f"{r.unprotected_escapes}/{r.trials}",
              f"{r.protected_escapes}/{r.trials}",
              r.corrected, r.recomputed, f"{r.overhead_pct:.1f}%")
             for r in rows],
        )
    )
    return 0


#: Per-run derived metrics a handler wants included in the command's
#: ``--metrics`` export (filled by ``profile``; others export only the
#: registry and cache counters).
_RUN_METRICS: List[object] = []


def _cmd_profile(args: argparse.Namespace) -> int:
    bad = _check_flags(
        "profile",
        [
            ("--chips", args.chips, args.chips >= 1, "must be >= 1"),
            ("--batch", args.batch,
             args.batch is None or args.batch >= 1, "must be >= 1"),
        ],
    )
    if bad:
        return bad
    resolved = _resolve_cluster(args)
    if isinstance(resolved, int):
        return resolved
    model, hw, batch = resolved
    from repro.obs.profile import profile_block

    report = profile_block(
        model, batch, args.chips, hw, algorithm=args.algorithm
    )
    if report is None:
        print(
            f"meshslice profile: {args.algorithm} cannot run on "
            f"{args.chips} chips",
            file=sys.stderr,
        )
        return 2
    _RUN_METRICS.append(report.metrics)
    print(report.render())
    return 0


def _describe_result(result) -> str:
    """One output line per served query."""
    from repro.autotuner.search import RobustTuningResult, TuningResult

    if isinstance(result, TuningResult):
        return (
            f"mesh {result.mesh}; block "
            f"{result.block_seconds * 1e3:.3f} ms"
        )
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
    bad = _check_flags(
        "serve",
        [
            ("--workers", args.workers, args.workers >= 1, "must be >= 1"),
            ("--repeat", args.repeat, args.repeat >= 1, "must be >= 1"),
            ("--store-max-records", args.store_max_records,
             args.store_max_records is None or args.store_max_records >= 1,
             "must be >= 1"),
            ("--store-max-bytes", args.store_max_bytes,
             args.store_max_bytes is None or args.store_max_bytes >= 1,
             "must be >= 1"),
        ],
    )
    if bad:
        return bad
    bounded = (
        args.store_max_records is not None or args.store_max_bytes is not None
    )
    if bounded and args.store is None:
        print(
            "meshslice serve: --store-max-records/--store-max-bytes "
            "require --store",
            file=sys.stderr,
        )
        return 2
    import json

    from repro.service import TuneRequest, TunerService

    if args.replay is not None:
        try:
            with open(args.replay) as handle:
                lines = handle.readlines()
        except OSError as exc:
            print(f"meshslice serve: {exc}", file=sys.stderr)
            return 2
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
            print(
                f"meshslice serve: {source}:{lineno}: bad query: {exc}",
                file=sys.stderr,
            )
            return 2
    if not requests:
        print("meshslice serve: no queries", file=sys.stderr)
        return 2
    store = args.store
    if bounded:
        from repro.service import PlanStore

        store = PlanStore(
            args.store,
            max_records=args.store_max_records,
            max_bytes=args.store_max_bytes,
        )
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
    import os

    action = getattr(args, "campaign_command", None)
    if action is None:
        print(
            "usage: meshslice campaign {run,resume,status,report} ...",
            file=sys.stderr,
        )
        return 2
    if action in ("run", "resume"):
        bad = _check_flags(
            f"campaign {action}",
            [
                ("--jobs", args.jobs,
                 args.jobs is None or args.jobs >= 1, "must be >= 1"),
                ("--retries", args.retries,
                 args.retries >= 0, "must be non-negative"),
                ("--backoff", args.backoff,
                 args.backoff >= 0.0, "must be non-negative"),
            ],
        )
        if bad:
            return bad
    from repro.campaign import (
        CampaignRunner,
        CampaignStore,
        get_campaign,
        report,
        status,
    )

    try:
        store = CampaignStore(args.store)
    except (OSError, ValueError) as exc:
        print(f"meshslice campaign: {exc}", file=sys.stderr)
        return 2
    name = getattr(args, "experiment", None)
    spec = None
    if name is not None:
        try:
            spec = get_campaign(name)
        except KeyError as exc:
            print(f"meshslice campaign: {exc.args[0]}", file=sys.stderr)
            return 2
    if action in ("resume", "status", "report"):
        wanted = [name] if name is not None else store.campaigns()
        if not wanted:
            print(
                f"meshslice campaign {action}: no campaigns in "
                f"{args.store}",
                file=sys.stderr,
            )
            return 2
        if name is not None and not os.path.exists(store.path_for(name)):
            print(
                f"meshslice campaign {action}: no store file for "
                f"{name!r} in {args.store}",
                file=sys.stderr,
            )
            return 2
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
        blocks = []
        for campaign_name in wanted:
            blocks.append(status(store, campaign_name).render())
        print("\n\n".join(blocks))
        return 0
    print(report(store, name, spec))
    return 0


def _write_metrics(path: str) -> None:
    """Dump everything collected during the command as schema JSONL."""
    from repro.obs.export import collect_records, write_jsonl

    write_jsonl(collect_records(run_metrics=_RUN_METRICS), path)


def _cmd_run(args: argparse.Namespace) -> int:
    bad = _check_flags(
        "run",
        [
            ("--jobs", args.jobs,
             args.jobs is None or args.jobs >= 1, "must be >= 1"),
        ],
    )
    if bad:
        return bad
    if args.jobs is not None:
        # Experiment grids read the worker count from the
        # environment, so one flag reaches every grid they run.
        import os

        from repro.experiments.common import JOBS_ENV

        os.environ[JOBS_ENV] = str(args.jobs)
    names: List[str] = []
    for name in args.experiments:
        if name == "all":
            names.extend(sorted(EXPERIMENTS))
        else:
            names.append(name)
    for name in names:
        start = time.time()
        try:
            report = run_experiment(name)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"=== {name} " + "=" * max(0, 70 - len(name)))
        print(report)
        print(f"--- {name} done in {time.time() - start:.1f}s\n")
    return 0


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
    handlers = {
        "run": lambda: _cmd_run(args),
        "list": _cmd_list,
        "tune": lambda: _cmd_tune(args),
        "faults": lambda: _cmd_faults(args),
        "recovery": lambda: _cmd_recovery(args),
        "elastic": lambda: _cmd_elastic(args),
        "sdc": lambda: _cmd_sdc(args),
        "profile": lambda: _cmd_profile(args),
        "serve": lambda: _cmd_serve(args),
        "campaign": lambda: _cmd_campaign(args),
        "models": _cmd_models,
        "presets": _cmd_presets,
    }
    code = handlers[args.command]()
    metrics_path = getattr(args, "metrics", None)
    if code == 0 and metrics_path:
        _write_metrics(metrics_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
