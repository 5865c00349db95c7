"""Cluster-level simulation results.

Wraps a program execution into the metrics the paper reports: makespan,
per-chip FLOPs, FLOP utilization (achieved throughput over the cluster's
peak, Section 5.1.1), and the communication breakdown of Figure 10.

:func:`simulate` is also where the observability layer taps the
simulator: the per-kind queue waits each engine execution returns are
folded into the queue-wait histogram once per kind and summarized, the
process-wide registry counters are bumped, and the per-run
:attr:`SimResult.metrics` are derived on first read. None of it feeds
back into the spans.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.hw.params import HardwareParams
from repro.obs.derive import (
    RunMetrics,
    WaitStats,
    derive_run_metrics,
    summarize_waits,
)
from repro.obs.registry import registry
from repro.sim.engine import SimFailure, Span, SpanTable
from repro.sim.program import Program
from repro.sim.trace import CommBreakdown, Trace

if TYPE_CHECKING:  # pragma: no cover - avoid the sim <-> faults cycle
    from repro.faults.plan import FaultPlan


@dataclasses.dataclass
class SimResult:
    """Outcome of simulating one program on one representative chip.

    The spans are kept as the engine's :class:`SpanTable` — sorted
    ``(start, aid, index, end)`` rows over the label, kind, exclusive
    and meta columns of the program that ran — and :attr:`spans` builds
    the span list on first read. The result keeps neither the program
    nor the engine.
    """

    hw: HardwareParams
    table: SpanTable
    makespan: float
    flops_per_chip: float
    #: Per-kind summary of the queue waits the engine returned, the one
    #: input of :attr:`metrics` the spans cannot reconstruct; the raw
    #: wait lists are not kept.
    queue_wait: Mapping[str, WaitStats]
    failure: Optional[SimFailure] = None
    _metrics: Optional[RunMetrics] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def spans(self) -> List[Span]:
        """The execution's spans in ``(start, aid)`` order, built on
        first read and cached."""
        return self.table.to_list()

    @property
    def metrics(self) -> RunMetrics:
        """Derived observability metrics of this execution (utilization,
        overlap fraction, queue waits, ...), computed on first read."""
        if self._metrics is None:
            self._metrics = derive_run_metrics(
                self.spans, queue_wait=self.queue_wait
            )
        return self._metrics

    @property
    def completed(self) -> bool:
        """Whether the run finished (no hard fault killed it)."""
        return self.failure is None

    @property
    def trace(self) -> Trace:
        """The execution's spans wrapped for analysis and export."""
        return Trace.from_spans(self.spans)

    @property
    def compute_seconds(self) -> float:
        """Wall-clock time the core spent in GeMM kernels."""
        return self.trace.compute_time()

    @property
    def comm(self) -> CommBreakdown:
        """Total (overlapped plus non-overlapped) communication time."""
        return self.trace.breakdown()

    def flop_utilization(self, peak_flops: float = None) -> float:
        """Achieved GeMM throughput over peak chip throughput.

        Because every chip performs the same amount of compute, the
        per-chip ratio equals the cluster-level FLOP utilization the
        paper reports.
        """
        peak = peak_flops if peak_flops is not None else self.hw.peak_flops
        if self.makespan <= 0 or self.failure is not None:
            # A killed step produced no usable work: the whole step is
            # re-executed after recovery, so its utilization is zero.
            return 0.0
        return self.flops_per_chip / (self.makespan * peak)


def simulate(
    program: Program,
    hw: HardwareParams,
    faults: Optional["FaultPlan"] = None,
) -> SimResult:
    """Run ``program`` and collect cluster metrics.

    ``faults`` executes the program under a
    :class:`repro.faults.FaultPlan` (see :meth:`Program.run`); the
    recorded per-chip FLOPs are unchanged, so ``flop_utilization``
    naturally reports the degradation.

    If the plan carries hard faults (or an exhaustible retry policy)
    and the run dies, the result's ``failure`` field holds the
    structured :class:`SimFailure` and ``makespan`` is the failure
    time — the wall clock the cluster burned before halting.
    """
    table, failure, waits = program.execute(faults)
    reg = registry()
    reg.inc("sim.runs")
    reg.inc("sim.activities", float(len(table)))
    if faults is not None and not faults.is_null:
        reg.inc("sim.faulted_runs")
    if failure is not None:
        reg.inc(
            "sim.failures",
            labels={"kind": failure.kind, "resource": failure.resource},
        )
    for kind, values in waits.items():
        reg.observe_many(
            "engine.queue_wait_seconds", values, labels={"kind": kind}
        )
    return SimResult(
        hw=hw,
        table=table,
        makespan=failure.time if failure is not None else table.makespan,
        flops_per_chip=program.total_flops,
        queue_wait=summarize_waits(waits),
        failure=failure,
    )


def combined_utilization(results: List[SimResult]) -> float:
    """FLOP utilization of a sequence of GeMMs executed back to back.

    Used to aggregate the forward, backward-data, and backward-weight
    GeMMs of all FC layers into one utilization number, as in Figure 9.
    """
    if not results:
        raise ValueError("need at least one result")
    total_time = sum(r.makespan for r in results)
    total_flops = sum(r.flops_per_chip for r in results)
    peak = results[0].hw.peak_flops
    if total_time <= 0:
        return 0.0
    return total_flops / (total_time * peak)
