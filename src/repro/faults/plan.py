"""Representative-chip fault plans: seeded perturbations of programs.

A :class:`FaultPlan` describes how one simulated execution deviates
from the uniform cluster the paper evaluates: a compute slowdown
(stragglers), per-link-direction bandwidth degradation, host
launch-latency jitter, and transient link outages that cost a retry.
The plan is applied at the program/engine boundary — it rewrites
activity *durations* (and rescales shared-resource demand rates so the
total demanded units are conserved) and hands the engine an ordinary
activity DAG. The event-heap engine itself is untouched, and a
zero-perturbation plan returns the input program object unchanged, so
its spans are bit-identical to an unfaulted run by construction.

Determinism: all randomness comes from ``random.Random(plan.seed)``,
consumed in activity order, so the same plan applied to the same
program always produces the same perturbed DAG — across processes and
platforms (the Mersenne Twister stream is specified).

The representative-chip reduction
---------------------------------

The simulator models *one* chip of an SPMD cluster (see
``docs/simulator.md``). Cluster-level nonuniformity reduces onto that
chip as follows, mirroring how ring synchronization propagates delays:

* a straggling chip slows every lockstep compute phase of the whole
  cluster, so the representative chip's compute/slicing activities run
  at the *worst* straggler's rate;
* a ring collective progresses at the rate of the slowest link in its
  ring, so each link direction carries the *worst* degradation factor
  among its sampled faulty links;
* launch jitter and outages hit individual operations, sampled
  per-activity from the plan's seed.

:class:`repro.faults.spec.FaultSpec` performs that reduction from a
cluster-level description.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.faults.hard import HardFault
from repro.obs.registry import registry as _metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim -> faults)
    from repro.recovery.retry import RetryPolicy
    from repro.sim.program import Program

#: Kinds of activities a compute slowdown applies to: GeMM kernels and
#: blocked slicing copies both run on the straggler's core.
_COMPUTE_KINDS = ("compute", "slice")

#: Ring-link resources an exhausted retry sequence can take down
#: (mirrors ``repro.faults.hard._LINKS``).
_LINK_RESOURCES = ("link_h", "link_v")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic perturbation of one representative-chip program.

    Attributes:
        compute_slowdown: Duration multiplier (>= 1) for compute and
            slicing activities — the worst straggler's slowdown.
        link_degradation: Sorted ``(link resource, factor)`` pairs; a
            factor ``f >= 1`` multiplies the transfer component of every
            communication activity holding that link (bandwidth reduced
            to ``1/f`` of nominal).
        launch_jitter: Maximum extra host launch latency (seconds).
            Each communication activity with a non-zero launch
            component draws a uniform ``[0, launch_jitter)`` addition.
        outage_rate: Per-activity probability (in ``[0, 1]``) that a
            transferring communication activity hits a transient link
            outage.
        outage_penalty: Dead time (seconds) of one outage — the
            detection timeout plus reconnection cost — charged on top
            of a full retransmission of the activity's (degraded)
            transfer time. Ignored when ``retry_policy`` is set.
        retry_policy: Optional :class:`repro.recovery.retry.RetryPolicy`.
            When set, each outage runs the explicit capped-retry /
            exponential-backoff state machine instead of the flat
            ``outage_penalty`` charge; an exhausted retry budget marks
            the activity so the engine declares the link permanently
            down (a structured ``SimFailure``).
        hard_faults: Permanent resource deaths
            (:class:`repro.faults.hard.HardFault`); the earliest one
            that fires halts the simulation. These do not rewrite
            durations — :meth:`apply` ignores them — they are consumed
            by ``Program.execute`` / ``Engine.run_with_failures``.
        seed: Seed of the per-activity jitter/outage draws.
    """

    compute_slowdown: float = 1.0
    link_degradation: Tuple[Tuple[str, float], ...] = ()
    launch_jitter: float = 0.0
    outage_rate: float = 0.0
    outage_penalty: float = 0.0
    retry_policy: Optional["RetryPolicy"] = None
    hard_faults: Tuple[HardFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.compute_slowdown < 1.0:
            raise ValueError("compute_slowdown must be >= 1 (faults add time)")
        for link, factor in self.link_degradation:
            if not isinstance(link, str):
                raise ValueError(f"link name must be a string, got {link!r}")
            if factor < 1.0:
                raise ValueError(
                    f"link degradation factor for {link!r} must be >= 1"
                )
        if self.launch_jitter < 0.0:
            raise ValueError("launch_jitter must be non-negative")
        if not 0.0 <= self.outage_rate <= 1.0:
            raise ValueError("outage_rate must be in [0, 1]")
        if self.outage_penalty < 0.0:
            raise ValueError("outage_penalty must be non-negative")

    @property
    def _rewrites_nothing(self) -> bool:
        """Whether :meth:`apply` is guaranteed to change no durations."""
        return (
            self.compute_slowdown == 1.0
            and all(factor == 1.0 for _link, factor in self.link_degradation)
            and self.launch_jitter == 0.0
            and self.outage_rate == 0.0
        )

    @property
    def is_null(self) -> bool:
        """Whether simulating under this plan changes nothing at all."""
        return self._rewrites_nothing and not self.hard_faults

    # ------------------------------------------------------------ application

    def apply(self, program: "Program") -> "Program":
        """Return ``program`` with this plan's perturbations applied.

        A null plan returns the *same* ``Program`` object, so the
        unfaulted fast path stays bit-identical. Otherwise a new
        program is built; the input is never mutated. Only the
        durations, shared-demand and meta columns are rewritten (entries
        the plan does not touch are shared between the two); every
        other column is the input's own.
        """
        if self._rewrites_nothing:
            return program
        _metrics().inc("faults.plans_applied")
        rng = random.Random(self.seed)
        factors = dict(self.link_degradation)
        cols = program.columns
        durations = list(cols.durations)
        shared = list(cols.shared)
        metas = list(cols.metas)
        for i, kind in enumerate(cols.kinds):
            perturbed = self._perturb(
                kind, durations[i], cols.exclusive[i], shared[i], metas[i],
                rng, factors,
            )
            if perturbed is not None:
                durations[i], shared[i], metas[i] = perturbed
        columns = cols._replace(
            durations=tuple(durations), shared=tuple(shared), metas=tuple(metas)
        )
        meta = dict(program.meta)
        meta["fault_plan"] = self
        return type(program).from_columns(
            columns, program.shared_capacities, meta
        )

    def _perturb(
        self,
        kind: str,
        duration: float,
        exclusive: Tuple[str, ...],
        shared: Dict[str, float],
        meta: Dict[str, object],
        rng: random.Random,
        factors: Dict[str, float],
    ) -> Optional[Tuple[float, Dict[str, float], Dict[str, object]]]:
        """One activity under this plan: its new ``(duration, shared,
        meta)``, or ``None`` when the plan leaves it untouched.

        Shared-resource demand rates are rescaled by
        ``old_duration / new_duration`` so the *total units* demanded
        (bytes of HBM/NIC traffic) are conserved: a slower operation
        moves the same data over a longer window.
        """
        if kind in _COMPUTE_KINDS:
            if self.compute_slowdown == 1.0 or duration <= 0.0:
                return None
            new_duration = duration * self.compute_slowdown
            return (
                new_duration,
                _conserved(shared, duration, new_duration),
                meta,
            )
        if kind != "comm":
            return None

        launch = float(meta.get("launch", 0.0))
        transfer = float(meta.get("transfer", 0.0))
        degradation = 1.0
        for resource in exclusive:
            factor = factors.get(resource)
            if factor is not None and factor > degradation:
                degradation = factor
        slowed_transfer = transfer * degradation
        extra = slowed_transfer - transfer
        jitter = 0.0
        if self.launch_jitter > 0.0 and launch > 0.0:
            jitter = rng.random() * self.launch_jitter
        retry = 0.0
        retransmit = 0.0
        attempts = 0
        failed_link = None
        if self.outage_rate > 0.0 and transfer > 0.0:
            if rng.random() < self.outage_rate:
                if self.retry_policy is not None:
                    episode = self.retry_policy.episode(
                        rng, slowed_transfer, self.outage_rate
                    )
                    retry = episode.dead_seconds
                    retransmit = episode.retransmit_seconds
                    attempts = episode.attempts
                    if episode.exhausted:
                        failed_link = self._victim_link(exclusive)
                else:
                    retry = self.outage_penalty
                    retransmit = slowed_transfer
                    attempts = 1
                reg = _metrics()
                reg.inc("faults.outages")
                reg.inc("faults.retry_attempts", float(attempts))
                if failed_link is not None:
                    reg.inc(
                        "faults.retries_exhausted",
                        labels={"resource": failed_link},
                    )
        delta = extra + jitter + retry + retransmit
        if delta == 0.0 and failed_link is None:
            return None
        new_duration = duration + delta
        new_shared = _conserved(shared, duration, new_duration)
        if retransmit > 0.0 and new_shared and duration > 0.0:
            # Retransmissions move the same bytes again: unlike a
            # degraded link (same units, longer window), each resend
            # adds its full HBM/NIC traffic. Charging it (plus the
            # retry timeout window at the nominal rate — the transport
            # keeps the path busy while it probes) keeps the demand
            # rate from dipping below nominal, so an outage can never
            # *relieve* contention for concurrent work.
            scale = (duration + retry + retransmit) / duration
            new_shared = {
                r: demand * scale for r, demand in new_shared.items()
            }
        new_meta = dict(meta)
        if jitter:
            new_meta["launch"] = launch + jitter
        if extra or retransmit:
            new_meta["transfer"] = slowed_transfer + retransmit
        if attempts:
            # The outage's dead time is a synchronization stall: the
            # chip waits out the timeout/backoff before retransmitting.
            new_meta["sync"] = float(meta.get("sync", 0.0)) + retry
            new_meta["retries"] = int(meta.get("retries", 0)) + attempts
        if failed_link is not None:
            # The retry budget ran out: the engine (failure-aware mode)
            # declares this link permanently dead the instant the last
            # retransmission completes.
            new_meta["failed_resource"] = failed_link
        return new_duration, new_shared, new_meta

    @staticmethod
    def _victim_link(exclusive: Tuple[str, ...]) -> str:
        """The link resource an exhausted retry sequence takes down."""
        for resource in exclusive:
            if resource in _LINK_RESOURCES:
                return resource
        return _LINK_RESOURCES[0]


def _conserved(
    shared: Dict[str, float], duration: float, new_duration: float
) -> Dict[str, float]:
    """``shared`` rescaled from ``duration`` to ``new_duration`` with the
    demanded units conserved (the input itself when nothing scales)."""
    if shared and new_duration > 0.0 and duration > 0.0:
        scale = duration / new_duration
        return {r: demand * scale for r, demand in shared.items()}
    return shared


#: The identity plan: applying it returns the input program unchanged.
NULL_PLAN = FaultPlan()
