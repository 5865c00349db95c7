"""SUMMA baseline (Section 2.3.3, Figure 2a).

SUMMA loops over panels of the gathered dimension; each iteration
broadcasts one panel of each flowing input within its ring (and, for
LS/RS dataflows, reduces partial outputs to the panel's owner). The
broadcasts/reduces are *pipelined fine-grain* transfers: a panel is
split into D packets streamed over the ring in ``P + D - 1``
synchronized stages, so each operation pays ``P - 1`` bubble stages
and one synchronization per stage — the source of SUMMA's O(P^2)
synchronization overhead that dominates at large mesh sizes
(Section 5.1.2).

Following the paper's methodology (Section 4.2), the timed plane uses
loop unrolling: the iteration count is set to the MeshSlice slice count
of the configuration. The functional plane uses the classical iteration
count (a common multiple of the mesh dimensions) so panels align with
shard boundaries.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    Slots,
    abft_costs,
    abft_encode,
    abft_epilogue,
    abft_payload_factor,
    flow_directions,
    matrix_bytes,
    register,
    sliced_local_dims,
)
from repro.comm.cost import CommCostModel
from repro.core.dataflow import Dataflow
from repro.core.gemm import local_gemm
from repro.hw.params import HardwareParams
from repro.mesh.topology import Coord, Mesh2D
from repro.sim.program import CostTable, Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np

#: Maximum fine-grain packet size of the pipelined bcast/reduce transfers.
#: Calibrated so that SUMMA's per-stage synchronizations dominate at
#: large mesh sizes (Figure 10) while small clusters stay competitive.
DEFAULT_PACKET_BYTES = 256 * 1024


@register
class SummaGeMM(DistributedGeMM):
    """Panel-broadcast 2D GeMM with fine-grain pipelined transfers."""

    name = "summa"

    def __init__(self, packet_bytes: float = DEFAULT_PACKET_BYTES):
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        self.packet_bytes = packet_bytes

    def _packets(self, payload_bytes: float, ring: int) -> int:
        """Packets per broadcast: enough to keep every ring link busy
        (at least ``ring`` packets), finer for very large payloads."""
        by_size = int(math.ceil(payload_bytes / self.packet_bytes))
        return max(1, ring, by_size)

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        comm = CommCostModel.for_hw(hw)
        chips, iterations = cfg.mesh.size, cfg.slices
        for op, mat, _link, ring in flow_directions(cfg):
            # Each iteration broadcasts (or reduces) one panel: the
            # per-ring share of the flowing matrix divided over
            # iterations.
            payload = (
                matrix_bytes(cfg.shape, mat)
                * abft_payload_factor(cfg, mat)
                * ring
                / (chips * iterations)
            )
            transfer = comm.broadcast if op == "ag" else comm.reduce
            table.comm(mat, transfer(ring, payload, self._packets(payload, ring)))
        table.gemm("gemm", *sliced_local_dims(cfg, iterations))
        if cfg.abft:
            abft_costs(table, cfg)
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        directions = flow_directions(cfg)
        encode = tuple(abft_encode(builder, slot).values()) if cfg.abft else ()
        tail = []
        for step in range(cfg.slices):
            deps = list(encode) if step == 0 else []
            for op, mat, link, _ring in directions:
                if op != "ag":
                    continue
                deps.append(
                    builder.emit_collective(
                        f"bcast_{mat}[{step}]", slot[mat], link,
                        deps=encode if step == 0 else (),
                    )
                )
            gemm = builder.emit_compute(f"gemm[{step}]", slot["gemm"], deps)
            tail = [gemm]
            for op, mat, link, _ring in directions:
                if op != "rds":
                    continue
                tail.append(
                    builder.emit_collective(
                        f"reduce_{mat}[{step}]", slot[mat], link, (gemm,)
                    )
                )
        if cfg.abft:
            abft_epilogue(builder, slot, tail)

    # ------------------------------------------------------------ functional

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Figure 2a executed on numpy shards.

        Operand orientations match the MeshSlice functional plane. The
        iteration count is the least common multiple of the mesh
        dimensions (panels must align with shard boundaries), so
        ``cfg.slices`` is not used here.
        """
        if cfg.transposed:
            raise NotImplementedError(
                "functional plane covers non-transposed variants"
            )
        if cfg.dataflow is Dataflow.OS:
            return _summa_os(a, b, cfg.mesh)
        if cfg.dataflow is Dataflow.LS:
            return _summa_ls(a, b, cfg.mesh)
        if cfg.dataflow is Dataflow.RS:
            return _summa_rs(a, b, cfg.mesh)
        raise ValueError(f"unknown dataflow {cfg.dataflow!r}")


def _iterations(extent: int, mesh: Mesh2D) -> int:
    """The classical SUMMA iteration count for a panel dimension."""
    count = math.lcm(mesh.rows, mesh.cols)
    if extent % count != 0:
        raise ValueError(
            f"panel dimension {extent} must divide by lcm(P_r, P_c) = {count}"
        )
    return count


def _summa_os(a: np.ndarray, b: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """SUMMA OS: ``C = A @ B`` via panel broadcasts over K."""
    import numpy as np

    from repro.comm.ops import bcast_col, bcast_row
    from repro.mesh.sharding import (
        gather_matrix,
        shard_matrix,
        zeros_like_sharded,
    )

    if a.shape[1] != b.shape[0]:
        raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
    k = a.shape[1]
    steps = _iterations(k, mesh)
    kb = k // steps
    a_sh = shard_matrix(a, mesh)
    b_sh = shard_matrix(b, mesh)
    c_sh = zeros_like_sharded(
        (a.shape[0], b.shape[1]), mesh, dtype=np.result_type(a, b)
    )
    for p in range(steps):
        col_owner, col_off = divmod(p * kb, k // mesh.cols)
        roots: Dict[Coord, np.ndarray] = {
            (i, col_owner): a_sh.shard((i, col_owner))[:, col_off:col_off + kb]
            for i in range(mesh.rows)
        }
        a_panel = bcast_col(roots, mesh, col_owner)
        row_owner, row_off = divmod(p * kb, k // mesh.rows)
        roots = {
            (row_owner, j): b_sh.shard((row_owner, j))[row_off:row_off + kb, :]
            for j in range(mesh.cols)
        }
        b_panel = bcast_row(roots, mesh, row_owner)
        for coord in mesh.coords():
            c_sh.shards[coord] += local_gemm(a_panel[coord], b_panel[coord])
    return gather_matrix(c_sh)


def _summa_ls(a: np.ndarray, b: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """SUMMA LS: ``C = A @ B.T`` via panel broadcasts/reduces over N."""
    import numpy as np

    from repro.comm.ops import bcast_row, reduce_col
    from repro.mesh.sharding import (
        gather_matrix,
        shard_matrix,
        zeros_like_sharded,
    )

    if a.shape[1] != b.shape[1]:
        raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
    n = b.shape[0]
    steps = _iterations(n, mesh)
    nb = n // steps
    a_sh = shard_matrix(a, mesh)
    b_sh = shard_matrix(b, mesh)
    c_sh = zeros_like_sharded(
        (a.shape[0], n), mesh, dtype=np.result_type(a, b)
    )
    for p in range(steps):
        row_owner, row_off = divmod(p * nb, n // mesh.rows)
        roots: Dict[Coord, np.ndarray] = {
            (row_owner, j): b_sh.shard((row_owner, j))[row_off:row_off + nb, :]
            for j in range(mesh.cols)
        }
        b_panel = bcast_row(roots, mesh, row_owner)
        partial = {
            coord: local_gemm(a_sh.shard(coord), b_panel[coord].T)
            for coord in mesh.coords()
        }
        col_owner, col_off = divmod(p * nb, n // mesh.cols)
        reduced = reduce_col(partial, mesh, col_owner)
        for i in range(mesh.rows):
            c_sh.shards[(i, col_owner)][:, col_off:col_off + nb] += reduced[
                (i, col_owner)
            ]
    return gather_matrix(c_sh)


def _summa_rs(a: np.ndarray, b: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """SUMMA RS: ``C = A.T @ B`` via panel broadcasts/reduces over M."""
    import numpy as np

    from repro.comm.ops import bcast_col, reduce_row
    from repro.mesh.sharding import (
        gather_matrix,
        shard_matrix,
        zeros_like_sharded,
    )

    if a.shape[0] != b.shape[0]:
        raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
    m = a.shape[1]
    steps = _iterations(m, mesh)
    mb = m // steps
    a_sh = shard_matrix(a, mesh)
    b_sh = shard_matrix(b, mesh)
    c_sh = zeros_like_sharded(
        (m, b.shape[1]), mesh, dtype=np.result_type(a, b)
    )
    for p in range(steps):
        col_owner, col_off = divmod(p * mb, m // mesh.cols)
        roots: Dict[Coord, np.ndarray] = {
            (i, col_owner): a_sh.shard((i, col_owner))[:, col_off:col_off + mb]
            for i in range(mesh.rows)
        }
        a_panel = bcast_col(roots, mesh, col_owner)
        partial = {
            coord: local_gemm(a_panel[coord].T, b_sh.shard(coord))
            for coord in mesh.coords()
        }
        row_owner, row_off = divmod(p * mb, m // mesh.rows)
        reduced = reduce_row(partial, mesh, row_owner)
        for j in range(mesh.cols):
            c_sh.shards[(row_owner, j)][row_off:row_off + mb, :] += reduced[
                (row_owner, j)
            ]
    return gather_matrix(c_sh)
