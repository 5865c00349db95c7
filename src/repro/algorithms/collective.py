"""Collective 2D GeMM baseline (Section 2.3.4, Figure 2b).

One full AllGather per gathered direction, a single local GeMM, and a
full ReduceScatter per scattered direction. The two collectives in
different directions run in parallel (different links), but nothing
overlaps with the GeMM computation — the algorithm's defining
limitation. MeshSlice degenerates to this algorithm at slice count 1
(minus the slicing copies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    Slots,
    abft_costs,
    abft_encode,
    abft_epilogue,
    abft_payload_factor,
    collective_local_dims,
    flow_directions,
    matrix_bytes,
    register,
)
from repro.comm.cost import CommCostModel
from repro.core.dataflow import Dataflow
from repro.hw.params import HardwareParams
from repro.sim.program import CostTable, Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


@register
class CollectiveGeMM(DistributedGeMM):
    """AG/RdS 2D GeMM without communication-computation overlap."""

    name = "collective"

    def check_support(self, cfg: GeMMConfig) -> Optional[str]:
        if cfg.slices != 1:
            return "collective 2D GeMM has no granularity knob (slices must be 1)"
        return None

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        comm = CommCostModel.for_hw(hw)
        for op, mat, _link, ring in flow_directions(cfg):
            shard_bytes = (
                matrix_bytes(cfg.shape, mat)
                * abft_payload_factor(cfg, mat)
                / cfg.mesh.size
            )
            collective = comm.allgather if op == "ag" else comm.reducescatter
            table.comm(mat, collective(ring, shard_bytes))
        table.gemm("gemm", *collective_local_dims(cfg))
        if cfg.abft:
            abft_costs(table, cfg)
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        directions = flow_directions(cfg)
        encode = abft_encode(builder, slot) if cfg.abft else {}
        gemm_deps = []
        for op, mat, link, _ring in directions:
            if op != "ag":
                continue
            deps = [encode[mat]] if mat in encode else []
            gemm_deps.append(
                builder.emit_collective(f"ag_{mat}", slot[mat], link, deps)
            )
        gemm_deps += [e for e in encode.values() if e not in gemm_deps]
        gemm = builder.emit_compute("gemm", slot["gemm"], gemm_deps)
        tail = [gemm]
        for op, mat, link, _ring in directions:
            if op != "rds":
                continue
            tail.append(
                builder.emit_collective(f"rds_{mat}", slot[mat], link, [gemm])
            )
        if cfg.abft:
            abft_epilogue(builder, slot, tail)

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Figure 2b executed on numpy shards.

        Same operand orientations as the MeshSlice functional plane:
        OS computes ``A @ B``, LS computes ``A @ B.T`` with B stored
        ``N x K``, RS computes ``A.T @ B`` with A stored ``K x M``.
        """
        from repro.comm.ops import ag_col, ag_row, rds_col, rds_row
        from repro.core.gemm import local_gemm
        from repro.mesh.sharding import shard_matrix

        if cfg.transposed:
            raise NotImplementedError(
                "functional plane covers non-transposed variants"
            )
        mesh = cfg.mesh
        a_sh = shard_matrix(a, mesh)
        b_sh = shard_matrix(b, mesh)
        if cfg.dataflow is Dataflow.OS:
            a_full = ag_col(a_sh.shards, mesh, axis=1)
            b_full = ag_row(b_sh.shards, mesh, axis=0)
            out = {
                coord: local_gemm(a_full[coord], b_full[coord])
                for coord in mesh.coords()
            }
            return _assemble(out, mesh, (a.shape[0], b.shape[1]))
        if cfg.dataflow is Dataflow.LS:
            b_full = ag_row(b_sh.shards, mesh, axis=0)
            partial = {
                coord: local_gemm(a_sh.shard(coord), b_full[coord].T)
                for coord in mesh.coords()
            }
            out = rds_col(partial, mesh, axis=1)
            return _assemble(out, mesh, (a.shape[0], b.shape[0]))
        if cfg.dataflow is Dataflow.RS:
            a_full = ag_col(a_sh.shards, mesh, axis=1)
            partial = {
                coord: local_gemm(a_full[coord].T, b_sh.shard(coord))
                for coord in mesh.coords()
            }
            out = rds_row(partial, mesh, axis=0)
            return _assemble(out, mesh, (a.shape[1], b.shape[1]))
        raise ValueError(f"unknown dataflow {cfg.dataflow!r}")


def _assemble(shards, mesh, global_shape) -> np.ndarray:
    from repro.mesh.sharding import ShardedMatrix, gather_matrix

    return gather_matrix(
        ShardedMatrix(mesh=mesh, shards=shards, global_shape=global_shape)
    )
