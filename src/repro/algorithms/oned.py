"""1D baselines: 1D tensor parallelism and FSDP (Section 4.3).

Both run on a single ring of chips, so they reach only two of a torus
chip's four ICI links (half the bandwidth of a 2D mesh) and their
communication traffic grows linearly with the chip count — the paper's
motivation for 2D TP. Both overlap communication with computation using
Wang's SendRecv decomposition, as in the paper's evaluation setup.

* **1D TP** (sequence-parallel style): either the input is all-gathered
  along the ring before multiplying with the output-sharded weight, or
  partial outputs are reduce-scattered after multiplying with the
  input-sharded weight. The implementation picks whichever flowing
  matrix is smaller.
* **FSDP**: the batch is sharded; the weight shards are all-gathered
  right before the GeMM (and gradient shards reduce-scattered, which
  has identical cost by symmetry, so the timed plane models the
  gather).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    Slots,
    group_bounds,
    group_sizes,
    register,
)
from repro.comm.cost import CommCostModel
from repro.core.dataflow import Dataflow
from repro.hw.params import HardwareParams
from repro.sim.engine import LINK_H
from repro.sim.program import CostTable, Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


def _pipeline_costs(
    table: CostTable, ring: int, step_bytes: float, groups: int, dims_for_group
) -> None:
    """The records of a :func:`_pipeline`: one SendRecv step, and one
    GeMM per distinct group size."""
    table.sendrecv("sendrecv", CommCostModel.for_hw(table.hw).sendrecv(step_bytes))
    for size in group_sizes(group_bounds(ring, groups)):
        table.gemm(("gemm", size), *dims_for_group(size))


def _pipeline(
    builder: ProgramBuilder, slot: Slots, label: str, ring: int, groups: int
) -> None:
    """Wang-style SendRecv pipeline over one ring.

    GeMM group ``g`` covers the shards below ``bounds[g + 1]``; shard
    ``h`` arrives at hop ``h`` (shard 0 is local).
    """
    bounds = group_bounds(ring, groups)
    hop = slot["sendrecv"]
    hops: List[int] = []
    prev = None
    for h in range(1, ring):
        prev = builder.emit_sendrecv(
            f"sendrecv_{label}[{h}]",
            hop,
            LINK_H,
            deps=(prev,) if prev is not None else (),
        )
        hops.append(prev)
    gemm = None
    for g in range(groups):
        size = bounds[g + 1] - bounds[g]
        if size <= 0:
            continue
        deps = []
        last_shard = bounds[g + 1] - 1
        if last_shard >= 1:
            deps.append(hops[last_shard - 1])
        if gemm is not None:
            deps.append(gemm)
        gemm = builder.emit_compute(f"gemm[{g}]", slot["gemm", size], deps)


def _canonical_1d(cfg: GeMMConfig) -> GeMMConfig:
    """Canonical configuration of the 1D ring algorithms.

    Both builders have a *fixed* sharding strategy: they read only the
    logical shape and the ring length, never ``dataflow`` or
    ``transposed``, and they merge their pipelines into
    ``max(1, min(slices, ring))`` GeMM groups. Every dataflow and
    transposition variant — and any slice count at or above the ring —
    therefore builds a byte-identical program.
    """
    groups = max(1, min(cfg.slices, cfg.mesh.size))
    if (
        groups == cfg.slices
        and cfg.dataflow is Dataflow.OS
        and not cfg.transposed
    ):
        return cfg
    return dataclasses.replace(
        cfg, dataflow=Dataflow.OS, slices=groups, transposed=False
    )


@register
class OneDTensorParallel(DistributedGeMM):
    """1D TP over a ring, with sequence-parallel style collectives."""

    name = "1dtp"

    def skeleton_key(self, cfg: GeMMConfig, hw: HardwareParams):
        """The default key plus which matrix flows: the smaller of the
        input and the output."""
        shape = cfg.shape
        return (super().skeleton_key(cfg, hw), shape.a_bytes <= shape.c_bytes)

    def canonical_config(self, cfg: GeMMConfig) -> GeMMConfig:
        return _canonical_1d(cfg)

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        ring, shape = cfg.mesh.size, cfg.shape
        m_chunk = max(1, shape.m // ring)
        if shape.a_bytes <= shape.c_bytes:
            # Gather the input along the ring; weight is output-sharded.
            flowing, n, k = shape.a_bytes, max(1, shape.n // ring), shape.k
        else:
            # Weight is input-sharded; reduce-scatter the partial outputs.
            flowing, n, k = shape.c_bytes, shape.n, max(1, shape.k // ring)
        groups = max(1, min(cfg.slices, ring))
        _pipeline_costs(
            table, ring, flowing / ring, groups, lambda size: (m_chunk * size, n, k)
        )
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        ring = cfg.mesh.size
        groups = max(1, min(cfg.slices, ring))
        if cfg.shape.a_bytes <= cfg.shape.c_bytes:
            _pipeline(builder, slot, "a", ring, groups)
            return
        # The mirrored pipeline: partial GeMMs feed accumulate-and-forward
        # SendRecvs.
        bounds = group_bounds(ring, groups)
        hop_bounds = group_bounds(ring - 1, groups)
        hop = slot["sendrecv"]
        prev_hop = None
        gemm = None
        for g in range(groups):
            size = bounds[g + 1] - bounds[g]
            if size <= 0:
                continue
            deps = [gemm] if gemm is not None else []
            gemm = builder.emit_compute(f"gemm[{g}]", slot["gemm", size], deps)
            for h in range(hop_bounds[g], hop_bounds[g + 1]):
                hop_deps = [gemm]
                if prev_hop is not None:
                    hop_deps.append(prev_hop)
                prev_hop = builder.emit_sendrecv(
                    f"sendrecv_c[{h}]", hop, LINK_H, deps=hop_deps
                )

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Reference: ``C = A @ B`` on a ring of ``cfg.chips`` chips."""
        import numpy as np

        from repro.comm.ops import ring_allgather, ring_reducescatter
        from repro.mesh.sharding import shard_cols, shard_rows

        ring = cfg.mesh.size
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
        if cfg.shape.a_bytes <= cfg.shape.c_bytes:
            a_shards = shard_rows(a, ring)
            b_shards = shard_cols(b, ring)
            gathered = ring_allgather(
                [a_shards[r] for r in range(ring)], axis=0
            )
            c_parts = [gathered[r] @ b_shards[r] for r in range(ring)]
            return np.concatenate(c_parts, axis=1)
        a_shards = shard_cols(a, ring)
        b_shards = shard_rows(b, ring)
        partials = [a_shards[r] @ b_shards[r] for r in range(ring)]
        scattered = ring_reducescatter(partials, axis=0)
        return np.concatenate(scattered, axis=0)


@register
class FSDPGeMM(DistributedGeMM):
    """Fully-sharded data parallelism over a ring."""

    name = "fsdp"

    def canonical_config(self, cfg: GeMMConfig) -> GeMMConfig:
        return _canonical_1d(cfg)

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        ring = cfg.mesh.size
        shape = cfg.shape
        m_local = max(1, shape.m // ring)
        k_chunk = max(1, shape.k // ring)

        def dims(size: int):
            return (m_local, shape.n, k_chunk * size)

        groups = max(1, min(cfg.slices, ring))
        _pipeline_costs(table, ring, shape.b_bytes / ring, groups, dims)
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        ring = cfg.mesh.size
        _pipeline(builder, slot, "w", ring, max(1, min(cfg.slices, ring)))

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Reference: ``C = A @ B`` with batch-sharded A, gathered B."""
        import numpy as np

        from repro.comm.ops import ring_allgather
        from repro.mesh.sharding import shard_rows

        ring = cfg.mesh.size
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
        a_shards = shard_rows(a, ring)
        b_shards = shard_rows(b, ring)
        gathered_b = ring_allgather([b_shards[r] for r in range(ring)], axis=0)
        c_parts = [a_shards[r] @ gathered_b[r] for r in range(ring)]
        return np.concatenate(c_parts, axis=0)
