"""Cannon's algorithm baseline (Section 2.3.2).

The classic systolic 2D GeMM: an initial *skew* pre-shifts row ``i`` of
``A`` by ``i`` positions and column ``j`` of ``B`` by ``j`` positions,
after which ``P`` iterations of multiply-then-shift (single-hop
SendRecvs in both directions) complete the product. Its two limitations
drive the paper's comparison: the skew is pure extra traffic, and only
square meshes are supported — so when the matrix sizes are imbalanced
Cannon cannot pick a traffic-minimizing mesh shape.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import DistributedGeMM, GeMMConfig, Slots, register
from repro.comm.cost import CommCostModel
from repro.core.dataflow import Dataflow
from repro.hw.params import HardwareParams
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import CostTable, Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


@register
class CannonGeMM(DistributedGeMM):
    """Skew-and-shift systolic 2D GeMM (output-stationary only)."""

    name = "cannon"

    def check_support(self, cfg: GeMMConfig) -> Optional[str]:
        if not cfg.mesh.is_square:
            return f"Cannon requires a square mesh, got {cfg.mesh}"
        if cfg.dataflow is not Dataflow.OS:
            return "Cannon is an output-stationary algorithm"
        return None

    def canonical_config(self, cfg: GeMMConfig) -> GeMMConfig:
        """Cannon's iteration count is the mesh side; the builder
        reads neither ``slices`` nor ``transposed`` (the skew-and-shift
        schedule is symmetric), so those knobs share one program."""
        if cfg.slices == 1 and not cfg.transposed:
            return cfg
        return dataclasses.replace(cfg, slices=1, transposed=False)

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        comm = CommCostModel.for_hw(hw)
        side = cfg.mesh.rows
        chips = cfg.mesh.size
        a_shard = cfg.shape.a_bytes / chips
        b_shard = cfg.shape.b_bytes / chips
        # Skew: the worst chip moves its shard floor(P/2) hops (the
        # torus halves the worst-case distance).
        table.sendrecv("skew_a", comm.sendrecv(a_shard, side // 2))
        table.sendrecv("skew_b", comm.sendrecv(b_shard, side // 2))
        table.sendrecv("shift_a", comm.sendrecv(a_shard))
        table.sendrecv("shift_b", comm.sendrecv(b_shard))
        dims = (cfg.shape.m, cfg.shape.n, cfg.shape.k)
        table.gemm("gemm", *(max(1, dim // side) for dim in dims))
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        # Both directions skew in parallel on their own links.
        prev_shift_a = builder.emit_sendrecv("skew_a", slot["skew_a"], LINK_H)
        prev_shift_b = builder.emit_sendrecv("skew_b", slot["skew_b"], LINK_V)
        prev_gemm = None
        side = cfg.mesh.rows
        for step in range(side):
            deps = [prev_shift_a, prev_shift_b]
            if prev_gemm is not None:
                deps.append(prev_gemm)
            prev_gemm = builder.emit_compute(f"gemm[{step}]", slot["gemm"], deps)
            if step < side - 1:
                prev_shift_a = builder.emit_sendrecv(
                    f"shift_a[{step}]", slot["shift_a"], LINK_H, [prev_shift_a]
                )
                prev_shift_b = builder.emit_sendrecv(
                    f"shift_b[{step}]", slot["shift_b"], LINK_V, [prev_shift_b]
                )

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Skew + systolic shifts on numpy shards: ``C = A @ B``."""
        import numpy as np

        from repro.mesh.sharding import (
            gather_matrix,
            shard_matrix,
            zeros_like_sharded,
        )

        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        mesh = cfg.mesh
        side = mesh.rows
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
        a_sh = shard_matrix(a, mesh)
        b_sh = shard_matrix(b, mesh)
        c_sh = zeros_like_sharded(
            (a.shape[0], b.shape[1]), mesh, dtype=np.result_type(a, b)
        )
        # Skew: row i of A shifts left by i; column j of B shifts up by j.
        a_cur = {
            (i, j): a_sh.shard((i, (j + i) % side)) for i, j in mesh.coords()
        }
        b_cur = {
            (i, j): b_sh.shard(((i + j) % side, j)) for i, j in mesh.coords()
        }
        for _step in range(side):
            for coord in mesh.coords():
                c_sh.shards[coord] += a_cur[coord] @ b_cur[coord]
            a_cur = {
                (i, j): a_cur[(i, (j + 1) % side)] for i, j in mesh.coords()
            }
            b_cur = {
                (i, j): b_cur[((i + 1) % side, j)] for i, j in mesh.coords()
            }
        return gather_matrix(c_sh)
