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
    Slots,
    effective_problem,
    flow_directions,
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
from repro.sim.program import CostTable, Program, ProgramBuilder

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
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        model = OneSidedCostModel.for_hw(hw)
        chips, slices = cfg.mesh.size, cfg.slices
        for op, mat, _link, ring in flow_directions(cfg):
            sub_bytes = matrix_bytes(cfg.shape, mat) / (chips * slices)
            epoch = model.epoch if op == "ag" else model.accumulate_epoch
            table.comm(("epoch", mat), epoch(ring, sub_bytes))
            table.comm(("fence", mat), model.fence(ring))
        table.gemm("gemm", *sliced_local_dims(cfg, slices))
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        directions = flow_directions(cfg)

        # Gather side: one get epoch per slice per flowing input — the
        # window addressing replaces MeshSlice's local slicing copies,
        # so the loop body is epoch + fence only.
        fence_ids: List[List[int]] = []  # [direction][s] -> fence id
        for op, mat, link, _ring in directions:
            if op != "ag":
                fence_ids.append([])
                continue
            fences = []
            for s in range(cfg.slices):
                epoch = builder.emit_comm(
                    f"get_{mat}[{s}]", slot["epoch", mat], (link,)
                )
                fences.append(
                    builder.emit_comm(
                        f"fence_{mat}[{s}]", slot["fence", mat], (link,),
                        deps=[epoch],
                    )
                )
            fence_ids.append(fences)

        for s in range(cfg.slices):
            gemm = builder.emit_compute(
                f"gemm[{s}]", slot["gemm"],
                [fences[s] for fences in fence_ids if fences],
            )
            for op, mat, link, _ring in directions:
                if op != "rds":
                    continue
                acc = builder.emit_comm(
                    f"acc_{mat}[{s}]", slot["epoch", mat], (link,), deps=[gemm]
                )
                builder.emit_comm(
                    f"fence_{mat}[{s}]", slot["fence", mat], (link,),
                    deps=[acc],
                )

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
