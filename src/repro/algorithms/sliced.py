"""One-sided sliced GeMM (Brock & Golin, "Slicing Is All You Need").

The universal one-sided algorithm: instead of ring collectives, every
chip *gets* exactly the operand windows its next partial product needs
directly from their owners' memory — windows may span owner shard
boundaries, which is what makes the algorithm shape-agnostic — and
closes each slice epoch with a single fence. Synchronization therefore
scales with the slice count, not the ring size: a get epoch pays zero
per-step syncs where a ring collective pays ``P - 1``, which is the
regime (latency-bound small shards, large meshes) where slicing beats
the collectives.

Timed plane: the MeshSlice program shape with every AllGather replaced
by a get epoch + fence and every ReduceScatter by an accumulate epoch
+ fence (:class:`repro.comm.onesided.OneSidedCostModel`). One-sided
addressing also needs no local slicing copies — the window *is* the
slice. Functional plane: windowed one-sided gets over sharded numpy,
bit-exact vs ``A @ B``.

ABFT is structurally unsupported: checksum rows/columns are appended at
shard granularity, and a windowed get slices through them, so
:meth:`check_support` rejects ``abft=True`` with a structured reason
instead of silently dropping protection (see ``docs/algorithms.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    effective_problem,
    flow_ops,
    matrix_bytes,
    register,
    sliced_local_dims,
)
from repro.comm import onesided
from repro.comm.onesided import OneSidedCostModel
from repro.core.dataflow import Dataflow, sliced_extent
from repro.core.gemm import local_gemm
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import Program

if TYPE_CHECKING:
    import numpy as np

#: The structured reason one-sided algorithms reject ABFT configs.
ABFT_UNSUPPORTED = (
    "ABFT checksums do not survive one-sided transfers: windowed "
    "gets/puts address sub-shard ranges that slice through the "
    "shard-granularity checksum rows/columns"
)


@register
class SlicedGeMM(DistributedGeMM):
    """One-sided sliced 2D GeMM over get/put epochs."""

    name = "sliced"

    def skeleton_key(self, cfg: GeMMConfig, hw: HardwareParams):
        """The whole configuration, so no two shapes share a skeleton."""
        return (self.name, cfg, hw)

    def check_support(self, cfg: GeMMConfig) -> Optional[str]:
        if cfg.abft:
            return ABFT_UNSUPPORTED
        shape, dataflow = effective_problem(cfg)
        extent = sliced_extent(shape, dataflow)
        for parts in (cfg.mesh.rows, cfg.mesh.cols):
            local = extent // parts
            if local < 1 or local % cfg.slices != 0:
                return (
                    f"slice count {cfg.slices} does not divide the local "
                    f"extent {local} of the sliced dimension"
                )
        return None

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        builder = self.program_builder(cfg, hw)
        costs = OneSidedCostModel.for_hw(hw)
        chips = cfg.mesh.size
        slices = cfg.slices
        (col_op, col_mat), (row_op, row_mat) = flow_ops(
            cfg.dataflow, cfg.transposed
        )
        directions = [
            (col_op, col_mat, LINK_H, cfg.mesh.cols),
            (row_op, row_mat, LINK_V, cfg.mesh.rows),
        ]
        m, n, k = sliced_local_dims(cfg, slices)

        # Gather side: one get epoch per slice per flowing input — the
        # window addressing replaces MeshSlice's local slicing copies,
        # so the loop body is epoch + fence only.
        fence_ids: List[List[int]] = []  # [direction][s] -> fence id
        for op, mat, link, ring in directions:
            if op != "ag":
                fence_ids.append([])
                continue
            sub_bytes = matrix_bytes(cfg.shape, mat) / (chips * slices)
            fences = []
            for s in range(slices):
                epoch = builder.comm_on(
                    f"get_{mat}[{s}]", costs.epoch(ring, sub_bytes), (link,)
                )
                fences.append(
                    builder.comm_on(
                        f"fence_{mat}[{s}]", costs.fence(ring), (link,),
                        deps=[epoch],
                    )
                )
            fence_ids.append(fences)

        for s in range(slices):
            gemm = builder.gemm(
                f"gemm[{s}]", m, n, k,
                deps=[fences[s] for fences in fence_ids if fences],
            )
            for op, mat, link, ring in directions:
                if op != "rds":
                    continue
                sub_bytes = matrix_bytes(cfg.shape, mat) / (chips * slices)
                acc = builder.comm_on(
                    f"acc_{mat}[{s}]",
                    costs.accumulate_epoch(ring, sub_bytes),
                    (link,),
                    deps=[gemm],
                )
                builder.comm_on(
                    f"fence_{mat}[{s}]", costs.fence(ring), (link,),
                    deps=[acc],
                )
        return builder.build(algorithm=self.name, config=cfg)

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """One-sided numpy execution, bit-exact vs the collectives.

        OS runs the full sliced loop with windowed gets (windows span
        owner shard boundaries); LS/RS gather their flowing input with
        gets and scatter partial outputs with one-sided accumulates
        (the slice count is a timed-plane granularity knob there).
        """
        if cfg.transposed:
            raise NotImplementedError(
                "functional plane covers non-transposed variants"
            )
        mesh = cfg.mesh
        if cfg.dataflow is Dataflow.OS:
            return _functional_os(a, b, mesh, cfg.slices)
        if cfg.dataflow is Dataflow.LS:
            return _functional_ls(a, b, mesh)
        if cfg.dataflow is Dataflow.RS:
            return _functional_rs(a, b, mesh)
        raise ValueError(f"unknown dataflow {cfg.dataflow!r}")


def _owner_windows(start: int, stop: int, local: int):
    """Owner ranks and shard-local windows covering ``[start, stop)``.

    The universal-addressing core: a global window decomposes into one
    (rank, local window) get per owner shard it intersects.
    """
    rank = start // local
    while start < stop:
        end = min(stop, (rank + 1) * local)
        yield rank, (start - rank * local, end - rank * local)
        start, rank = end, rank + 1


def _functional_os(
    a: np.ndarray, b: np.ndarray, mesh: Mesh2D, slices: int
) -> np.ndarray:
    import numpy as np

    from repro.mesh.sharding import shard_matrix

    a_sh = shard_matrix(a, mesh)
    b_sh = shard_matrix(b, mesh)
    big_k = a.shape[1]
    a_cols = big_k // mesh.cols  # A shard K extent
    b_rows = big_k // mesh.rows  # B shard K extent
    out = {
        coord: np.zeros(
            (a_sh.shard_shape[0], b_sh.shard_shape[1]), dtype=a.dtype
        )
        for coord in mesh.coords()
    }
    for s in range(slices):
        lo = s * big_k // slices
        hi = (s + 1) * big_k // slices
        for i, j in mesh.coords():
            a_win = np.concatenate(
                [
                    onesided.get(a_sh.shards, mesh, (i, jj), cols=win)
                    for jj, win in _owner_windows(lo, hi, a_cols)
                ],
                axis=1,
            )
            b_win = np.concatenate(
                [
                    onesided.get(b_sh.shards, mesh, (ii, j), rows=win)
                    for ii, win in _owner_windows(lo, hi, b_rows)
                ],
                axis=0,
            )
            out[(i, j)] += local_gemm(a_win, b_win)
    return _assemble(out, mesh, (a.shape[0], b.shape[1]))


def _functional_ls(a: np.ndarray, b: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """Left-stationary: ``A @ B.T`` with B stored ``N x K``."""
    import numpy as np

    from repro.mesh.sharding import shard_matrix

    a_sh = shard_matrix(a, mesh)
    b_sh = shard_matrix(b, mesh)
    big_n = b.shape[0]
    out = {
        coord: np.zeros(
            (a_sh.shard_shape[0], big_n // mesh.cols), dtype=a.dtype
        )
        for coord in mesh.coords()
    }
    chunk = big_n // mesh.cols
    for i, j in mesh.coords():
        b_panel = onesided.gather_get(
            b_sh.shards, mesh, tuple((ii, j) for ii in range(mesh.rows)),
            axis=0,
        )
        partial = local_gemm(a_sh.shard((i, j)), b_panel.T)
        for jj in range(mesh.cols):
            out = onesided.accumulate(
                out, mesh, (i, jj),
                partial[:, jj * chunk:(jj + 1) * chunk],
            )
    return _assemble(out, mesh, (a.shape[0], big_n))


def _functional_rs(a: np.ndarray, b: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """Right-stationary: ``A.T @ B`` with A stored ``K x M``."""
    import numpy as np

    from repro.mesh.sharding import shard_matrix

    a_sh = shard_matrix(a, mesh)
    b_sh = shard_matrix(b, mesh)
    big_m = a.shape[1]
    out = {
        coord: np.zeros(
            (big_m // mesh.rows, b_sh.shard_shape[1]), dtype=a.dtype
        )
        for coord in mesh.coords()
    }
    chunk = big_m // mesh.rows
    for i, j in mesh.coords():
        a_panel = onesided.gather_get(
            a_sh.shards, mesh, tuple((i, jj) for jj in range(mesh.cols)),
            axis=1,
        )
        partial = local_gemm(a_panel.T, b_sh.shard((i, j)))
        for ii in range(mesh.rows):
            out = onesided.accumulate(
                out, mesh, (ii, j),
                partial[ii * chunk:(ii + 1) * chunk, :],
            )
    return _assemble(out, mesh, (big_m, b.shape[1]))


def _assemble(shards, mesh, global_shape) -> np.ndarray:
    from repro.mesh.sharding import ShardedMatrix, gather_matrix

    return gather_matrix(
        ShardedMatrix(mesh=mesh, shards=shards, global_shape=global_shape)
    )
