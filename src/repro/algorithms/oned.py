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
    register,
)
from repro.core.dataflow import Dataflow
from repro.hw.params import HardwareParams
from repro.sim.engine import LINK_H
from repro.sim.program import Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


def _pipeline(
    builder: ProgramBuilder,
    label: str,
    ring: int,
    step_bytes: float,
    groups: int,
    dims_for_group,
) -> None:
    """Wang-style SendRecv pipeline over one ring.

    ``dims_for_group(size)`` returns the kernel dims of a GeMM covering
    ``size`` of the ring's ``ring`` shards.
    """
    bounds = [g * ring // groups for g in range(groups + 1)]
    hops: List[int] = []
    prev = None
    for h in range(1, ring):
        prev = builder.sendrecv(
            f"sendrecv_{label}[{h}]",
            step_bytes,
            LINK_H,
            deps=[prev] if prev is not None else [],
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
        m, n, k = dims_for_group(size)
        gemm = builder.gemm(f"gemm[{g}]", m, n, k, deps=deps)


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
        builder = self.program_builder(cfg, hw)
        ring = cfg.mesh.size
        shape = cfg.shape
        groups = max(1, min(cfg.slices, ring))
        if shape.a_bytes <= shape.c_bytes:
            # Gather the input along the ring; weight is output-sharded.
            step_bytes = shape.a_bytes / ring
            m_chunk = max(1, shape.m // ring)

            def dims(size: int):
                return (m_chunk * size, max(1, shape.n // ring), shape.k)

            _pipeline(builder, "a", ring, step_bytes, groups, dims)
        else:
            # Weight is input-sharded; reduce-scatter the partial
            # outputs. The pipeline is the mirrored decomposition:
            # partial GeMMs feed accumulate-and-forward SendRecvs.
            step_bytes = shape.c_bytes / ring
            m_chunk = max(1, shape.m // ring)
            bounds = [g * ring // groups for g in range(groups + 1)]
            prev_hop = None
            gemm = None
            total_hops = ring - 1
            hop_bounds = [g * total_hops // groups for g in range(groups + 1)]
            for g in range(groups):
                size = bounds[g + 1] - bounds[g]
                if size <= 0:
                    continue
                deps = [gemm] if gemm is not None else []
                gemm = builder.gemm(
                    f"gemm[{g}]",
                    m_chunk * size,
                    shape.n,
                    max(1, shape.k // ring),
                    deps=deps,
                )
                for h in range(hop_bounds[g], hop_bounds[g + 1]):
                    hop_deps = [gemm]
                    if prev_hop is not None:
                        hop_deps.append(prev_hop)
                    prev_hop = builder.sendrecv(
                        f"sendrecv_c[{h}]", step_bytes, LINK_H, deps=hop_deps
                    )
        return builder.build(algorithm=self.name, config=cfg)

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
        builder = self.program_builder(cfg, hw)
        ring = cfg.mesh.size
        shape = cfg.shape
        groups = max(1, min(cfg.slices, ring))
        step_bytes = shape.b_bytes / ring
        m_local = max(1, shape.m // ring)
        k_chunk = max(1, shape.k // ring)

        def dims(size: int):
            return (m_local, shape.n, k_chunk * size)

        _pipeline(builder, "w", ring, step_bytes, groups, dims)
        return builder.build(algorithm=self.name, config=cfg)

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
