"""Wang et al. decomposition baseline (Section 2.3.4, [34]).

Wang's algorithm partitions the collective communication of *one*
torus direction into point-to-point SendRecv transfers that are
software-pipelined with partial GeMMs; the collective in the other
direction remains a blocking prologue (for a gathered input) or
epilogue (for scattered outputs). This overlaps roughly half of the
communication — the gap to MeshSlice, which partitions both directions.

The decomposed direction is chosen as the one with the larger traffic
cost (the profitable one to overlap). Loop unrolling (Section 4.2)
merges the natural ``P - 1`` pipeline steps into ``min(S, P)`` larger
GeMM groups, matching MeshSlice's granularity for fairness.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List

from repro.algorithms.base import (
    DistributedGeMM,
    GeMMConfig,
    Slots,
    collective_local_dims,
    effective_problem,
    flow_directions,
    group_bounds,
    group_sizes,
    matrix_bytes,
    register,
)
from repro.comm.cost import CommCostModel
from repro.core.dataflow import Dataflow, sliced_dimension
from repro.hw.params import HardwareParams
from repro.sim.program import CostTable, Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


@register
class WangGeMM(DistributedGeMM):
    """Single-direction SendRecv decomposition of Collective 2D GeMM."""

    name = "wang"

    def _split_directions(self, cfg: GeMMConfig):
        """The (decomposed, blocking) torus directions of ``cfg``.

        The decomposed direction is the one with the larger traffic
        cost — the profitable one to overlap.
        """
        chips = cfg.mesh.size
        directions = flow_directions(cfg)

        def traffic(direction) -> float:
            op, mat, _link, ring = direction
            return (ring - 1) * matrix_bytes(cfg.shape, mat) / chips

        decomposed = max(directions, key=traffic)
        blocking = directions[1 - directions.index(decomposed)]
        return decomposed, blocking

    def skeleton_key(self, cfg: GeMMConfig, hw: HardwareParams):
        """The default key plus the decomposition, which the traffic of
        the problem shape picks."""
        return (super().skeleton_key(cfg, hw), self._split_directions(cfg))

    def canonical_config(self, cfg: GeMMConfig) -> GeMMConfig:
        """Clamp ``slices`` to the decomposed ring length.

        The builder merges the pipeline into
        ``min(slices, dec_ring)`` GeMM groups, so every slice count at
        or above the decomposed ring builds the same program.
        """
        (_op, _mat, _link, dec_ring), _blocking = self._split_directions(cfg)
        groups = max(1, min(cfg.slices, dec_ring))
        if groups == cfg.slices:
            return cfg
        return dataclasses.replace(cfg, slices=groups)

    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        return self.assemble(cfg, hw)

    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        table = CostTable(hw)
        comm = CommCostModel.for_hw(hw)
        chips = cfg.mesh.size
        decomposed, (op, mat, _link, ring) = self._split_directions(cfg)
        if ring > 1:
            collective = comm.allgather if op == "ag" else comm.reducescatter
            shard_bytes = matrix_bytes(cfg.shape, mat) / chips
            table.comm("blocking", collective(ring, shard_bytes))
        _op, dec_mat, _link, dec_ring = decomposed
        step_bytes = matrix_bytes(cfg.shape, dec_mat) / chips
        table.sendrecv("sendrecv", comm.sendrecv(step_bytes))

        _shape, eff_dataflow = effective_problem(cfg)
        full_dims = collective_local_dims(cfg)
        split_dim = {"m": 0, "n": 1, "k": 2}[sliced_dimension(eff_dataflow)]
        groups = max(1, min(cfg.slices, dec_ring))
        for size in group_sizes(group_bounds(dec_ring, groups)):
            dims = list(full_dims)
            dims[split_dim] = max(1, dims[split_dim] * size // dec_ring)
            table.gemm(("gemm", size), *dims)
        return table

    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        decomposed, (op, mat, link, ring) = self._split_directions(cfg)

        # Blocking collective of the non-decomposed direction.
        prologue: List[int] = []
        if ring > 1 and op == "ag":
            prologue.append(
                builder.emit_collective(f"ag_{mat}", slot["blocking"], link)
            )
        dec_op, dec_mat, dec_link, dec_ring = decomposed
        groups = max(1, min(cfg.slices, dec_ring))
        bounds = group_bounds(dec_ring, groups)
        hop = slot["sendrecv"]
        gemm = None
        if dec_op == "ag":
            # SendRecv pipeline delivers shard h at hop h (shard 0 is
            # local); GeMM group g needs every shard below bounds[g+1].
            hops: List[int] = []
            prev = None
            for h in range(1, dec_ring):
                prev = builder.emit_sendrecv(
                    f"sendrecv_{dec_mat}[{h}]",
                    hop,
                    dec_link,
                    deps=(prev,) if prev is not None else (),
                )
                hops.append(prev)
            for g in range(groups):
                size = bounds[g + 1] - bounds[g]
                if size <= 0:
                    continue
                deps = list(prologue)
                last_shard = bounds[g + 1] - 1
                if last_shard >= 1:
                    deps.append(hops[last_shard - 1])
                if gemm is not None:
                    deps.append(gemm)
                gemm = builder.emit_compute(f"gemm[{g}]", slot["gemm", size], deps)
        else:
            # Decomposed ReduceScatter: partial GeMMs feed a chain of
            # accumulate-and-forward SendRecvs; the tail of the chain is
            # the non-overlapped epilogue.
            hop_bounds = group_bounds(dec_ring - 1, groups)
            prev_hop = None
            for g in range(groups):
                size = bounds[g + 1] - bounds[g]
                if size <= 0:
                    continue
                deps = list(prologue)
                if gemm is not None:
                    deps.append(gemm)
                gemm = builder.emit_compute(f"gemm[{g}]", slot["gemm", size], deps)
                for h in range(hop_bounds[g], hop_bounds[g + 1]):
                    hop_deps = [gemm]
                    if prev_hop is not None:
                        hop_deps.append(prev_hop)
                    prev_hop = builder.emit_sendrecv(
                        f"sendrecv_{dec_mat}[{h}]", hop, dec_link, deps=hop_deps
                    )
        # Blocking epilogue: the non-decomposed direction's scatter.
        if ring > 1 and op == "rds":
            builder.emit_collective(
                f"rds_{mat}", slot["blocking"], link,
                deps=[gemm] if gemm is not None else [],
            )

    # ------------------------------------------------------------ functional

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """OS-dataflow reference: ``C = A @ B``.

        All-gathers ``B`` within column rings up front, then circulates
        the local ``A`` shards around each row ring, accumulating the
        partial product that matches the currently-held shard — the
        SendRecv decomposition of the ``A`` AllGather.
        """
        import numpy as np

        from repro.comm.ops import ag_row, shift_col
        from repro.mesh.sharding import (
            gather_matrix,
            shard_matrix,
            zeros_like_sharded,
        )

        if cfg.dataflow is not Dataflow.OS or cfg.transposed:
            raise NotImplementedError(
                "functional Wang reference covers the OS dataflow"
            )
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
        mesh = cfg.mesh
        k = a.shape[1]
        block_k = k // mesh.cols
        a_sh = shard_matrix(a, mesh)
        b_sh = shard_matrix(b, mesh)
        b_full = ag_row(b_sh.shards, mesh, axis=0)
        c_sh = zeros_like_sharded(
            (a.shape[0], b.shape[1]), mesh, dtype=np.result_type(a, b)
        )
        a_cur = dict(a_sh.shards)
        for step in range(mesh.cols):
            for i, j in mesh.coords():
                src_col = (j + step) % mesh.cols
                rows = slice(src_col * block_k, (src_col + 1) * block_k)
                c_sh.shards[(i, j)] += a_cur[(i, j)] @ b_full[(i, j)][rows, :]
            if step < mesh.cols - 1:
                a_cur = shift_col(a_cur, mesh, 1)
        return gather_matrix(c_sh)
