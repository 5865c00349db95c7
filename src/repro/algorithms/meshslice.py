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
    Slots,
    abft_costs,
    abft_encode,
    abft_epilogue,
    abft_payload_factor,
    effective_problem,
    flow_directions,
    matrix_bytes,
    register,
    sliced_local_dims,
)
from repro.comm.cost import CommCostModel
from repro.core.dataflow import sliced_extent
from repro.hw.params import HardwareParams
from repro.sim.program import CostTable, Program, ProgramBuilder

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
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        comm = CommCostModel.for_hw(hw)
        chips, slices = cfg.mesh.size, cfg.slices
        for op, mat, _link, ring in flow_directions(cfg):
            shard_bytes = (
                matrix_bytes(cfg.shape, mat)
                * abft_payload_factor(cfg, mat)
                / (chips * slices)
            )
            if slices > 1:
                table.slice(f"slice_{mat}", shard_bytes)
            collective = comm.allgather if op == "ag" else comm.reducescatter
            table.comm(f"{op}_{mat}", collective(ring, shard_bytes))
        table.gemm("gemm", *sliced_local_dims(cfg, slices))
        if cfg.abft:
            abft_costs(table, cfg)
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        slices = cfg.slices
        directions = flow_directions(cfg)

        # ABFT: encode both operands' checksums up front (one streaming
        # pass per local shard); everything downstream depends on them.
        encode = abft_encode(builder, slot) if cfg.abft else {}

        # Input slicing only depends on the stationary local shards, so
        # all iterations' slice copies are issued up front; the core
        # executes them around the GeMMs (they are small HBM copies).
        # At S = 1 slicing is the identity, so MeshSlice degenerates to
        # exactly the Collective algorithm (Section 5.1.1).
        gather_ids: List[List[int]] = []  # [direction][s] -> AG activity
        for op, mat, link, _ring in directions:
            if op != "ag":
                gather_ids.append([])
                continue
            copy, gather = slot.get(f"slice_{mat}"), slot[f"ag_{mat}"]
            encoded = (encode[mat],) if mat in encode else ()
            ags = []
            for s in range(slices):
                deps = encoded
                if slices > 1:
                    deps = (builder.emit_compute(
                        f"slice_{mat}[{s}]", copy, deps, kind="slice"
                    ),)
                ags.append(
                    builder.emit_collective(f"ag_{mat}[{s}]", gather, link, deps)
                )
            gather_ids.append(ags)

        scatters = [
            (mat, link, slot[f"rds_{mat}"], slot.get(f"slice_{mat}"))
            for op, mat, link, _ring in directions
            if op == "rds"
        ]
        tail: List[int] = []
        for s in range(slices):
            gemm_deps = [ags[s] for ags in gather_ids if ags]
            if s == 0:
                # A stationary operand's encode has no AG chain to ride.
                gemm_deps += [e for e in encode.values() if e not in gemm_deps]
            gemm = builder.emit_compute(f"gemm[{s}]", slot["gemm"], gemm_deps)
            tail = [gemm]
            for mat, link, scatter, copy in scatters:
                rds = builder.emit_collective(
                    f"rds_{mat}[{s}]", scatter, link, (gemm,)
                )
                if slices > 1:
                    rds = builder.emit_compute(
                        f"unslice_{mat}[{s}]", copy, (rds,), kind="slice"
                    )
                tail.append(rds)

        if cfg.abft:
            abft_epilogue(builder, slot, tail)

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
