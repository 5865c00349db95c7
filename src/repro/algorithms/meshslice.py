"""MeshSlice: timed algorithm implementation (Section 3.1, Figure 5).

Builds the representative-chip program of the MeshSlice 2D GeMM: an
``S``-iteration loop where each iteration slices the local shards,
runs *partial* AllGathers of the sub-shards in both torus directions,
computes a partial GeMM, and (for LS/RS dataflows) reduce-scatters the
partial outputs back into the stationary output's slice positions.
Communication-computation overlap, the non-overlapped prologue (the
first iteration's gathers) and epilogue (the last iteration's GeMM or
scatter) all emerge from the dependency structure plus the simulator's
core/link resources — exactly the paper's Figure 4 timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    abft_epilogue,
    abft_payload_factor,
    effective_problem,
    flow_ops,
    matrix_bytes,
    register,
    sliced_local_dims,
)
from repro.core.dataflow import sliced_extent
from repro.hw.params import HardwareParams
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import Program

if TYPE_CHECKING:
    import numpy as np


@register
class MeshSliceGeMM(DistributedGeMM):
    """The paper's contribution: sliced-collective 2D GeMM."""

    name = "meshslice"

    def check_support(self, cfg: GeMMConfig) -> Optional[str]:
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

        # ABFT: encode both operands' checksums up front (one streaming
        # pass per local shard); everything downstream depends on them.
        encode = {}
        if cfg.abft:
            for mat in ("a", "b"):
                elements = matrix_bytes(cfg.shape, mat) / (
                    chips * cfg.shape.dtype_bytes
                )
                encode[mat] = builder.checksum(f"abft_encode_{mat}", elements)

        # Input slicing only depends on the stationary local shards, so
        # all iterations' slice copies are issued up front; the core
        # executes them around the GeMMs (they are small HBM copies).
        # At S = 1 slicing is the identity, so MeshSlice degenerates to
        # exactly the Collective algorithm (Section 5.1.1).
        gather_ids: List[List[int]] = []  # [direction][s] -> AG activity
        for op, mat, link, ring in directions:
            if op != "ag":
                gather_ids.append([])
                continue
            shard_bytes = (
                matrix_bytes(cfg.shape, mat)
                * abft_payload_factor(cfg, mat)
                / (chips * slices)
            )
            ags = []
            for s in range(slices):
                deps = [encode[mat]] if mat in encode else []
                if slices > 1:
                    deps = [
                        builder.slice_copy(
                            f"slice_{mat}[{s}]", shard_bytes, deps=deps
                        )
                    ]
                ags.append(
                    builder.allgather(
                        f"ag_{mat}[{s}]", ring, shard_bytes, link, deps=deps
                    )
                )
            gather_ids.append(ags)

        tail: List[int] = []
        for s in range(slices):
            gemm_deps = [ags[s] for ags in gather_ids if ags]
            if s == 0:
                # A stationary operand's encode has no AG chain to ride.
                gemm_deps += [e for e in encode.values() if e not in gemm_deps]
            gemm = builder.gemm(f"gemm[{s}]", m, n, k, deps=gemm_deps)
            tail = [gemm]
            for op, mat, link, ring in directions:
                if op != "rds":
                    continue
                shard_bytes = (
                    matrix_bytes(cfg.shape, mat)
                    * abft_payload_factor(cfg, mat)
                    / (chips * slices)
                )
                rds = builder.reducescatter(
                    f"rds_{mat}[{s}]", ring, shard_bytes, link, deps=[gemm]
                )
                tail.append(rds)
                if slices > 1:
                    tail[-1] = builder.slice_copy(
                        f"unslice_{mat}[{s}]", shard_bytes, deps=[rds]
                    )

        if cfg.abft:
            abft_epilogue(builder, cfg, hw, tail)
        return builder.build(algorithm=self.name, config=cfg)

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Run the numpy reference (block size 1; see ``repro.core``)."""
        from repro.core.meshslice import meshslice_gemm

        if cfg.transposed:
            raise NotImplementedError(
                "functional plane covers non-transposed variants"
            )
        return meshslice_gemm(a, b, cfg.mesh, cfg.dataflow, cfg.slices, block=1)
