"""The profiling workflow: where does one deployment's time go?

:func:`profile_block` runs the same mesh search the evaluation uses
(``best_block_run``) for one ``(model, batch, chips, hw, algorithm)``
point and assembles a :class:`ProfileReport`: FLOP utilization,
per-resource utilization, the overlap fraction, the communication
breakdown, queue waits, and the hit rates of the memoization caches
the search called. The ``meshslice profile`` subcommand renders it;
library callers get the structured object.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.hw.params import HardwareParams
from repro.models.config import LLMConfig
from repro.obs.derive import RunMetrics, merge_run_metrics


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
        cache_hit_rates: Hit rate of each memoization cache the mesh
            search called, over that search's calls alone.
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

    before = cache_stats()
    block = best_block_run(algorithm, model, batch_size, chips, hw)
    if block is None:
        return None
    hit_rates: Dict[str, float] = {}
    for name, stats in cache_stats().items():
        prior = before.get(name)
        hits = stats.hits - (prior.hits if prior else 0)
        calls = stats.calls - (prior.calls if prior else 0)
        if calls:
            hit_rates[name] = hits / calls
    per_pass = tuple(
        (
            f"{cfg.shape.m}x{cfg.shape.n}x{cfg.shape.k}"
            f"/{cfg.dataflow.name}/S{cfg.slices}",
            result.metrics,
        )
        for cfg, result in zip(block.configs, block.results)
    )
    return ProfileReport(
        model=model.name,
        algorithm=algorithm,
        chips=chips,
        batch=batch_size,
        mesh=block.mesh.shape,
        flop_utilization=block.utilization(hw),
        block_seconds=block.seconds,
        metrics=merge_run_metrics([metrics for _label, metrics in per_pass]),
        per_pass=per_pass,
        cache_hit_rates=hit_rates,
    )
