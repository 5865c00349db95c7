"""Space-filling-curve GeMM (Georganas et al.).

Communication-avoiding 2.5D-style GeMM where output tiles are assigned
to chips along a generalized Hilbert curve over the tile grid
(:func:`repro.mesh.topology.hilbert_order`). Consecutive tiles on the
curve share a tile-row or tile-column, so a chip walking its curve
segment re-fetches an operand panel only when the curve turns into a
new row/column of the grid — the number of distinct tile-rows (and
tile-columns) a segment touches bounds its communication, and the
curve's locality makes that bound near the 2.5D lower bound without
requiring square meshes or perfect-power chip counts.

Panels are fetched with one-sided gets (one get per owner shard,
:meth:`repro.comm.onesided.OneSidedCostModel.panel`), so the algorithm
also inherits the zero-per-step-sync behaviour of the sliced family.
``cfg.slices`` is reinterpreted as the number of output tiles *per
chip*; the tile grid is ``(rows * a) x (cols * b)`` for the factor
pair ``a * b == slices`` that keeps the grid closest to square.

The functional plane computes every tile from windowed one-sided gets
and is bit-exact vs ``A @ B``. Output-stationary only (the curve
orders *output* tiles); ABFT is rejected for the same structural
reason as the sliced family (see ``docs/algorithms.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    Slots,
    matrix_bytes,
    register,
)
from repro.algorithms.sliced import ABFT_UNSUPPORTED
from repro.comm import onesided
from repro.comm.onesided import OneSidedCostModel
from repro.core.dataflow import Dataflow
from repro.core.gemm import local_gemm
from repro.hw.params import HardwareParams
from repro.mesh.topology import Coord, hilbert_order
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import CostTable, Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


def tile_split(slices: int, rows: int, cols: int) -> Tuple[int, int]:
    """Factor ``slices`` into per-axis tile counts ``(a, b)``.

    Picks the factor pair ``a * b == slices`` whose tile grid
    ``(rows * a) x (cols * b)`` is closest to square — squarer grids
    give the Hilbert curve more locality to exploit. Deterministic:
    ties break toward the smaller ``a``.
    """
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")
    best = None
    for a in range(1, slices + 1):
        if slices % a != 0:
            continue
        b = slices // a
        score = abs(rows * a - cols * b)
        if best is None or score < best[0]:
            best = (score, a, b)
    return best[1], best[2]


@register
class SFCGeMM(DistributedGeMM):
    """Hilbert-curve-ordered communication-avoiding 2D GeMM."""

    name = "sfc"

    def skeleton_key(self, cfg: GeMMConfig, hw: HardwareParams):
        """The whole configuration: which curve segment is the worst
        chip's depends on the panel sizes, so on the shape."""
        return (self.name, cfg, hw)

    def check_support(self, cfg: GeMMConfig) -> Optional[str]:
        if cfg.abft:
            return ABFT_UNSUPPORTED
        if cfg.transposed:
            return "the curve orders output tiles of the untransposed problem"
        if cfg.dataflow is not Dataflow.OS:
            return (
                "space-filling-curve ordering is output-stationary: the "
                f"curve walks output tiles, not {cfg.dataflow.value} partials"
            )
        rows, cols = cfg.mesh.rows, cfg.mesh.cols
        a, b = tile_split(cfg.slices, rows, cols)
        grid_r, grid_c = rows * a, cols * b
        m, n, k = cfg.shape.m, cfg.shape.n, cfg.shape.k
        if m % grid_r != 0 or n % grid_c != 0:
            return (
                f"tile grid {grid_r}x{grid_c} (slices={cfg.slices}) does "
                f"not divide the {m}x{n} output"
            )
        if k % rows != 0 or k % cols != 0:
            return f"K={k} is not shardable over the {rows}x{cols} mesh"
        return None

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        model = OneSidedCostModel.for_hw(hw)
        rows, cols = cfg.mesh.rows, cfg.mesh.cols
        a, b = tile_split(cfg.slices, rows, cols)
        grid_r, grid_c = rows * a, cols * b
        a_panel = matrix_bytes(cfg.shape, "a") / grid_r
        b_panel = matrix_bytes(cfg.shape, "b") / grid_c
        hops = model.mean_ring_hops
        table.comm("panel_a", model.panel(cols, a_panel / cols, hops(cols)))
        table.comm("fence_a", model.fence(cols))
        table.comm("panel_b", model.panel(rows, b_panel / rows, hops(rows)))
        table.comm("fence_b", model.fence(rows))
        table.gemm("gemm", cfg.shape.m // grid_r, cfg.shape.n // grid_c, cfg.shape.k)
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        a, b = tile_split(cfg.slices, cfg.mesh.rows, cfg.mesh.cols)
        grid_r, grid_c = cfg.mesh.rows * a, cfg.mesh.cols * b
        segments = _curve_segments(grid_r, grid_c, cfg.slices)

        # Simulate the worst chip: the segment touching the most panel
        # volume (distinct tile-rows weigh an A panel, distinct
        # tile-cols a B panel). Ties break toward the lowest rank so
        # the program is deterministic.
        a_panel = matrix_bytes(cfg.shape, "a") / grid_r
        b_panel = matrix_bytes(cfg.shape, "b") / grid_c
        segment = max(
            segments,
            key=lambda seg: (
                len({ti for ti, _ in seg}) * a_panel
                + len({tj for _, tj in seg}) * b_panel,
                -segments.index(seg),
            ),
        )

        row_fence: Dict[int, int] = {}  # tile-row -> fence activity id
        col_fence: Dict[int, int] = {}
        for ti, tj in segment:
            if ti not in row_fence:
                fetch = builder.emit_comm(
                    f"panel_a[{ti}]", slot["panel_a"], (LINK_H,)
                )
                row_fence[ti] = builder.emit_comm(
                    f"fence_a[{ti}]", slot["fence_a"], (LINK_H,), deps=[fetch]
                )
            if tj not in col_fence:
                fetch = builder.emit_comm(
                    f"panel_b[{tj}]", slot["panel_b"], (LINK_V,)
                )
                col_fence[tj] = builder.emit_comm(
                    f"fence_b[{tj}]", slot["fence_b"], (LINK_V,), deps=[fetch]
                )
            builder.emit_compute(
                f"gemm[{ti},{tj}]", slot["gemm"],
                deps=[row_fence[ti], col_fence[tj]],
            )

    def functional(
        self, a_mat: np.ndarray, b_mat: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Every tile computed from windowed one-sided panel gets."""
        import numpy as np

        from repro.mesh.sharding import shard_matrix

        if cfg.transposed:
            raise NotImplementedError(
                "functional plane covers non-transposed variants"
            )
        if cfg.dataflow is not Dataflow.OS:
            raise NotImplementedError(
                "space-filling-curve GeMM is output-stationary"
            )
        mesh = cfg.mesh
        rows, cols = mesh.rows, mesh.cols
        a, b = tile_split(cfg.slices, rows, cols)
        grid_r, grid_c = rows * a, cols * b
        big_m, big_n = a_mat.shape[0], b_mat.shape[1]
        th, tw = big_m // grid_r, big_n // grid_c
        a_sh = shard_matrix(a_mat, mesh)
        b_sh = shard_matrix(b_mat, mesh)
        out = np.zeros((big_m, big_n), dtype=a_mat.dtype)
        for segment in _curve_segments(grid_r, grid_c, cfg.slices):
            for ti, tj in segment:
                # The tile's A rows live inside one mesh-row of owners
                # (th divides the shard height); the K extent spans all
                # mesh columns — one get per owner shard.
                bi, lo = divmod(ti, a)
                a_panel = np.concatenate(
                    [
                        onesided.get(
                            a_sh.shards, mesh, (bi, jj),
                            rows=(lo * th, (lo + 1) * th),
                        )
                        for jj in range(cols)
                    ],
                    axis=1,
                )
                bj, lo = divmod(tj, b)
                b_panel = np.concatenate(
                    [
                        onesided.get(
                            b_sh.shards, mesh, (ii, bj),
                            cols=(lo * tw, (lo + 1) * tw),
                        )
                        for ii in range(rows)
                    ],
                    axis=0,
                )
                out[ti * th:(ti + 1) * th, tj * tw:(tj + 1) * tw] = local_gemm(
                    a_panel, b_panel
                )
        return out


def _curve_segments(
    grid_r: int, grid_c: int, per_chip: int
) -> List[List[Coord]]:
    """Consecutive Hilbert-curve runs of ``per_chip`` tiles, one per chip."""
    order = hilbert_order(grid_r, grid_c)
    return [
        list(order[start:start + per_chip])
        for start in range(0, len(order), per_chip)
    ]
