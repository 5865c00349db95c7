"""Elastic mesh transitions as timed reshard-migration programs.

PR 3's recovery policies charge reconfiguration as a flat restart
constant. This module replaces that constant with the real thing: when
a torus changes shape (degrade, restore, reshape) or a spare chip takes
over a dead coordinate, every chip's weight/optimizer/activation shards
must move from the old layout to the new one — and that movement is
just another communication program the cluster simulator can time,
with the same launch/transfer/sync decomposition, HBM contention, and
link-overlap policy as the training step itself.

Two migration planes mirror the two GeMM families:

* ``"collective"`` — the shards are re-blocked with ring AllGathers
  along each axis whose partitioning changed, then each chip slices
  its new shard out of the gathered block. Simple and synchronous, but
  an axis change replicates the full block over the ring.
* ``"onesided"`` — each chip posts one RDMA get per overlapping
  source owner (the new block boundaries intersect at most
  ``floor(old/new) + 1`` old intervals per axis), routed at the mean
  min-wrap torus distance, then closes the epoch with one log-depth
  fence. No per-step synchronization and no replication: only the
  bytes that actually change owners cross the wires.

Replacement (``source == target``, a spare chip adopting a dead
coordinate) moves only the dead chip's shard: the spare refills it
from the peers of one ring — the row ring when the mesh has more than
one column, otherwise the column ring — which models the common
neighbor-striped checkpoint placement.

:func:`migration_seconds` simulates the built program and memoizes the
makespan per (plan, hardware), so lifetime simulations that
revisit the same transition thousands of times pay for one simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.comm.cost import CommCost
from repro.comm.onesided import OneSidedCostModel
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D
from repro.models.config import LLMConfig
from repro.obs.registry import registry as _metrics
from repro.perf.pipeline import reshard_migration
from repro.sim.cluster import simulate
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import Program, ProgramBuilder

#: The two comm planes a migration program can ride on.
MIGRATION_PLANES: Tuple[str, ...] = ("collective", "onesided")

#: fp32 Adam first and second moments carried per weight element.
OPTIMIZER_BYTES_PER_PARAM = 8.0


def overlap_pieces(source_parts: int, target_parts: int) -> int:
    """Owners one target block can intersect along one re-blocked axis.

    An axis sharded into ``source_parts`` equal intervals is re-sharded
    into ``target_parts``; one new interval (width ``1/target_parts``
    of the axis) crosses at most ``floor(source/target) + 1`` old
    intervals, and never more than ``source_parts``. This is the
    per-axis fan-in of the one-sided migration: the worst-case chip
    posts this many gets per axis.
    """
    if source_parts < 1 or target_parts < 1:
        raise ValueError(
            "partition counts must be >= 1, got "
            f"{source_parts} -> {target_parts}"
        )
    return min(source_parts, source_parts // target_parts + 1)


@dataclasses.dataclass(frozen=True)
class ReshardPlan:
    """One elastic transition's data movement, ready to build and time.

    Attributes:
        source: The layout the shards currently live in.
        target: The layout they must land in. Equal to ``source`` for a
            spare replacement (only the dead chip's shard moves).
        payload_bytes: Total bytes that must land re-sharded across the
            whole cluster (weights + optimizer state + activation
            checkpoints; see :func:`migration_payload_bytes`).
        plane: ``"collective"`` or ``"onesided"``.
    """

    source: Mesh2D
    target: Mesh2D
    payload_bytes: float
    plane: str = "onesided"

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be non-negative, got {self.payload_bytes}"
            )
        if self.plane not in MIGRATION_PLANES:
            raise ValueError(
                f"unknown migration plane {self.plane!r}; "
                f"expected one of {MIGRATION_PLANES}"
            )

    @property
    def is_replacement(self) -> bool:
        """Whether this is a same-shape spare swap-in."""
        return self.source == self.target

    @property
    def source_shard_bytes(self) -> float:
        """Bytes one chip owns under the source layout."""
        return self.payload_bytes / self.source.size

    @property
    def target_shard_bytes(self) -> float:
        """Bytes one chip owns under the target layout."""
        return self.payload_bytes / self.target.size

    @property
    def pieces(self) -> int:
        """Worst-case gets one chip posts on the one-sided plane."""
        if self.is_replacement:
            return max(1, _stripe_ring(self.source) - 1)
        return overlap_pieces(self.source.rows, self.target.rows) * (
            overlap_pieces(self.source.cols, self.target.cols)
        )


def _stripe_ring(mesh: Mesh2D) -> int:
    """The ring a chip's checkpoint stripe lives on (for replacement)."""
    return mesh.cols if mesh.cols > 1 else mesh.rows


def _axis_mean_hops(extent: int) -> float:
    """Mean min-wrap hop count along one torus axis of ``extent`` chips."""
    return sum(min(d, extent - d) for d in range(extent)) / extent


def build_migration_program(plan: ReshardPlan, hw: HardwareParams) -> Program:
    """The timed activity DAG of one reshard migration.

    The program is the representative chip's schedule, like every GeMM
    program: the worst-case chip of the *target* layout fetches or
    gathers its new shard, writes it back through the slicing-copy
    path, and synchronizes. Simulate with :func:`repro.sim.simulate`
    (or use :func:`migration_seconds` for the memoized makespan).
    """
    builder = ProgramBuilder(hw)
    if plan.plane == "onesided":
        _onesided_migration(builder, plan)
    else:
        _collective_migration(builder, plan)
    return builder.build(
        kind="reshard",
        plane=plan.plane,
        source=(plan.source.rows, plan.source.cols),
        target=(plan.target.rows, plan.target.cols),
        payload_bytes=plan.payload_bytes,
    )


def _onesided_migration(builder: ProgramBuilder, plan: ReshardPlan) -> None:
    """One-sided plane: per-owner gets, local write-back, one fence.

    A get's route decomposes into horizontal plus vertical min-wrap
    hops (dimension-ordered torus routing), so the transfer is split
    into one activity per link direction: the horizontal leg carries
    the descriptor posts, the vertical leg only its wire time. The
    legs run concurrently — exactly the overlap the hardware gives
    independent link directions.
    """
    costs = OneSidedCostModel.for_hw(builder.hw)
    total = plan.target_shard_bytes if not plan.is_replacement else (
        plan.source_shard_bytes
    )
    pieces = plan.pieces
    if plan.is_replacement:
        ring = _stripe_ring(plan.source)
        mean_h = costs.mean_ring_hops(ring) if plan.source.cols > 1 else 0.0
        mean_v = costs.mean_ring_hops(ring) if plan.source.cols == 1 else 0.0
    else:
        mean_h = _axis_mean_hops(plan.target.cols)
        mean_v = _axis_mean_hops(plan.target.rows)
    horizontal = costs.panel(pieces, total / pieces, mean_h)
    deps = []
    if horizontal.total > 0 or total == 0:
        deps.append(
            builder.comm_on("reshard/get-h", horizontal, (LINK_H,))
        )
    if mean_v > 0 and total > 0:
        vertical = CommCost(
            launch=0.0,
            transfer=total * mean_v / builder.hw.ring_bandwidth,
            sync=0.0,
            hbm_bytes=0.0,
            syncs=0,
            wire_bytes=total * mean_v,
        )
        deps.append(builder.comm_on("reshard/get-v", vertical, (LINK_V,)))
    if not deps:
        deps.append(builder.barrier("reshard/noop", ()))
    copy = builder.slice_copy("reshard/writeback", total, deps=deps)
    builder.comm_on(
        "reshard/fence",
        costs.fence(plan.target.size),
        (LINK_H, LINK_V),
        deps=[copy],
    )


def _collective_migration(builder: ProgramBuilder, plan: ReshardPlan) -> None:
    """Collective plane: AllGather per changed axis, then local re-slice.

    Replacement gathers the dead chip's stripe over its checkpoint
    ring; a shape change gathers the source shard along every axis
    whose partitioning changed (the second gather moves the already
    row-gathered block, which is the honest replication cost of doing
    resharding with synchronous collectives).
    """
    deps = []
    if plan.is_replacement:
        ring = _stripe_ring(plan.source)
        link = LINK_H if plan.source.cols > 1 else LINK_V
        deps.append(
            builder.allgather(
                "reshard/ag-stripe",
                ring,
                plan.source_shard_bytes / max(1, ring),
                link,
            )
        )
    else:
        shard = plan.source_shard_bytes
        if plan.source.cols != plan.target.cols:
            deps.append(
                builder.allgather(
                    "reshard/ag-row", plan.source.cols, shard, LINK_H
                )
            )
            shard *= plan.source.cols
        if plan.source.rows != plan.target.rows:
            deps.append(
                builder.allgather(
                    "reshard/ag-col",
                    plan.source.rows,
                    shard,
                    LINK_V,
                    deps=tuple(deps),
                )
            )
    copy = builder.slice_copy(
        "reshard/writeback", plan.target_shard_bytes, deps=deps
    )
    builder.barrier("reshard/done", deps=[copy])


def simulate_migration(plan: ReshardPlan, hw: HardwareParams) -> float:
    """Simulate ``plan``'s migration program once (not memoized)."""
    result = simulate(build_migration_program(plan, hw), hw)
    _metrics().inc(
        "elastic.migrations",
        labels={
            "plane": plan.plane,
            "kind": "replace" if plan.is_replacement else "reshard",
        },
    )
    _metrics().observe("elastic.migration_seconds", result.makespan)
    return result.makespan


def migration_seconds(plan: ReshardPlan, hw: HardwareParams) -> float:
    """Simulated wall-clock seconds of ``plan``'s migration program.

    Memoized per (plan, hardware): lifetime simulations replay
    the same handful of transitions thousands of times and pay for one
    simulation each.
    """
    return reshard_migration(plan, hw)


def migration_payload_bytes(
    model: LLMConfig, batch_size: int, hw: HardwareParams
) -> float:
    """Bytes a transition must land re-sharded across the cluster.

    The training state that is layout-dependent: every FC weight in
    the compute dtype plus its two fp32 Adam moments, and one
    transformer activation checkpoint per layer for the in-flight
    batch (the standard recompute-from-layer-boundary checkpointing).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    weights = model.approx_params * (hw.dtype_bytes + OPTIMIZER_BYTES_PER_PARAM)
    activations = (
        float(model.tokens(batch_size)) * model.hidden * hw.dtype_bytes
        * model.num_layers
    )
    return weights + activations
