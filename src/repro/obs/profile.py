"""The profiling workflow: where does one deployment's time go?

:func:`profile_block` runs the same mesh search the evaluation uses
(``best_block_run``) for one ``(model, batch, chips, hw, algorithm)``
point and assembles a :class:`ProfileReport`: FLOP utilization,
per-resource utilization, the overlap fraction, the communication
breakdown, queue waits, and the memoization layer's hit rates. The
``meshslice profile`` subcommand renders it; library callers get the
structured object.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.hw.params import HardwareParams
from repro.models.config import LLMConfig
from repro.obs.derive import RunMetrics, derive_run_metrics, merge_run_metrics


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Profile of one transformer block's FC training GeMMs.

    Attributes:
        model: Model name.
        algorithm: Distributed GeMM algorithm profiled.
        chips: Cluster size.
        batch: Global batch size.
        mesh: The algorithm's chosen mesh shape ``(rows, cols)``.
        flop_utilization: Figure 9's metric over the block.
        block_seconds: Total FC block time (seconds).
        metrics: Block-aggregated :class:`RunMetrics`.
        per_pass: ``(pass label, RunMetrics)`` of each training GeMM.
        cache_hit_rates: Hit rate of each warm memoization cache.
        service_stats: The tuning service's cumulative ``service.*``
            counters and gauges (store hit/miss/corrupt counts,
            in-flight coalescing, queue depth, p50/p95 service
            latency), empty when no :class:`repro.service.TunerService`
            ran in this process.
        campaign_stats: The campaign layer's cumulative ``campaign.*``
            counters (store appends/corrupt/repairs, points ran vs
            skipped vs failed, retries), empty when no
            :class:`repro.campaign.CampaignRunner` ran in this process.
        elastic_stats: The elastic-recovery layer's cumulative
            ``elastic.*`` counters (lifetimes simulated, failures,
            repairs, transitions per policy, spares consumed,
            exhaustions, migrations built per plane), empty when no
            lifetime or migration simulation ran in this process.
    """

    model: str
    algorithm: str
    chips: int
    batch: int
    mesh: Tuple[int, int]
    flop_utilization: float
    block_seconds: float
    metrics: RunMetrics
    per_pass: Tuple[Tuple[str, RunMetrics], ...]
    cache_hit_rates: Dict[str, float]
    service_stats: Dict[str, float] = dataclasses.field(default_factory=dict)
    campaign_stats: Dict[str, float] = dataclasses.field(default_factory=dict)
    elastic_stats: Dict[str, float] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        """The ``meshslice profile`` text report."""
        from repro.experiments.common import render_table

        m = self.metrics
        lines = [
            f"{self.model}: {self.algorithm} on {self.chips} chips "
            f"(mesh {self.mesh[0]}x{self.mesh[1]}), batch {self.batch}",
            f"FC block {self.block_seconds * 1e3:.2f} ms; "
            f"FLOP utilization {self.flop_utilization * 100:.1f}%",
            "",
            f"overlap fraction {m.overlap_fraction * 100:.1f}% "
            f"(compute {m.compute_seconds * 1e3:.2f} ms, "
            f"comm {m.comm_seconds * 1e3:.2f} ms, "
            f"hidden {m.overlap_seconds * 1e3:.2f} ms)",
            f"comm breakdown: launch {m.comm_launch * 1e3:.3f} ms, "
            f"transfer {m.comm_transfer * 1e3:.3f} ms, "
            f"sync {m.comm_sync * 1e3:.3f} ms",
            "",
            render_table(
                ["resource", "busy (ms)", "utilization"],
                [
                    (
                        resource,
                        m.busy_seconds[resource] * 1e3,
                        f"{m.utilization[resource] * 100:.1f}%",
                    )
                    for resource in sorted(m.utilization)
                ],
            ),
        ]
        if m.queue_wait:
            lines.extend(
                [
                    "",
                    render_table(
                        ["kind", "waits", "total wait (ms)", "max wait (ms)"],
                        [
                            (
                                kind,
                                stats.count,
                                stats.total * 1e3,
                                stats.max * 1e3,
                            )
                            for kind, stats in sorted(m.queue_wait.items())
                        ],
                    ),
                ]
            )
        if self.cache_hit_rates:
            lines.extend(
                [
                    "",
                    render_table(
                        ["cache", "hit rate"],
                        [
                            (name, f"{rate * 100:.1f}%")
                            for name, rate in sorted(
                                self.cache_hit_rates.items()
                            )
                        ],
                    ),
                ]
            )
        if self.service_stats:
            lines.extend(
                [
                    "",
                    render_table(
                        ["tuning service", "total"],
                        [
                            (name[len("service."):], f"{value:g}")
                            for name, value in sorted(
                                self.service_stats.items()
                            )
                        ],
                    ),
                ]
            )
        if self.campaign_stats:
            lines.extend(
                [
                    "",
                    render_table(
                        ["campaign", "total"],
                        [
                            (name[len("campaign."):], f"{value:g}")
                            for name, value in sorted(
                                self.campaign_stats.items()
                            )
                        ],
                    ),
                ]
            )
        if self.elastic_stats:
            lines.extend(
                [
                    "",
                    render_table(
                        ["elastic recovery", "total"],
                        [
                            (name[len("elastic."):], f"{value:g}")
                            for name, value in sorted(
                                self.elastic_stats.items()
                            )
                        ],
                    ),
                ]
            )
        return "\n".join(lines)


def profile_block(
    model: LLMConfig,
    batch_size: int,
    chips: int,
    hw: HardwareParams,
    algorithm: str = "meshslice",
) -> Optional[ProfileReport]:
    """Profile one block at the algorithm's own optimal mesh shape.

    Returns ``None`` when the algorithm cannot run at this cluster
    size (mirroring ``best_block_run``). Imports the experiment stack
    lazily: ``repro.obs`` sits below it.
    """
    from repro.experiments.common import best_block_run
    from repro.perf.cache import cache_stats

    block = best_block_run(algorithm, model, batch_size, chips, hw)
    if block is None:
        return None
    per_pass: List[Tuple[str, RunMetrics]] = []
    for cfg, result in zip(block.configs, block.results):
        metrics = result.metrics
        if metrics is None:
            # Metrics were disabled when this pass was first simulated
            # (or the result came from a pre-metrics cache entry); the
            # spans still carry everything derivable.
            metrics = derive_run_metrics(result.spans)
        label = (
            f"{cfg.shape.m}x{cfg.shape.n}x{cfg.shape.k}"
            f"/{cfg.dataflow.name}/S{cfg.slices}"
        )
        per_pass.append((label, metrics))
    merged = merge_run_metrics([metrics for _label, metrics in per_pass])
    hit_rates = {
        name: stats.hit_rate
        for name, stats in cache_stats().items()
        if stats.calls
    }
    service_totals = _prefixed_totals("service.")
    campaign_totals = _prefixed_totals("campaign.", counters_only=True)
    elastic_totals = _prefixed_totals("elastic.", counters_only=True)
    return ProfileReport(
        model=model.name,
        algorithm=algorithm,
        chips=chips,
        batch=batch_size,
        mesh=block.mesh.shape,
        flop_utilization=block.utilization(hw),
        block_seconds=block.seconds,
        metrics=merged,
        per_pass=tuple(per_pass),
        cache_hit_rates=hit_rates,
        service_stats=service_totals,
        campaign_stats=campaign_totals,
        elastic_stats=elastic_totals,
    )


def _prefixed_totals(
    prefix: str, counters_only: bool = False
) -> Dict[str, float]:
    """Registry counter (and gauge) values under one name prefix.

    Labeled series render as ``name{label=value}``. Empty when the
    subsystem never ran (or metrics are disabled) — prefix sections of
    the report are skipped then.
    """
    from repro.obs.registry import registry

    wanted = ("counter",) if counters_only else ("counter", "gauge")
    totals: Dict[str, float] = {}
    for record in registry().snapshot():
        if record.type not in wanted or not record.name.startswith(prefix):
            continue
        if record.value is None or not record.value:
            continue
        key = record.name
        if record.labels:
            inner = ",".join(f"{k}={v}" for k, v in record.labels)
            key = f"{key}{{{inner}}}"
        totals[key] = record.value
    return totals
