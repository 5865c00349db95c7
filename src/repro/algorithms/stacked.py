"""3D-cluster GeMM algorithms: 2.5D GeMM and MeshSlice+DP (Section 7).

The paper's closing comparison pits two ways of using a third torus
dimension of ``c`` replicas:

* **2.5D GeMM** [28]: Cannon-based. The base mesh must be square
  (``P x P x c``); the inputs are replicated ``c`` ways along the third
  dimension, each replica layer computes ``1/c`` of the contraction
  with ``P / c`` systolic shift steps, and the partial outputs are
  reduced across the replica dimension. Replication and the square-base
  constraint are its traffic handicaps.
* **MeshSlice+DP**: data parallelism along the third dimension — each
  of the ``c`` 2D meshes trains ``1/c`` of the batch with MeshSlice,
  and the weight gradients are all-reduced across replicas. Any
  ``P_r x P_c`` base shape is allowed, so the mesh can be
  traffic-optimal.

Both are provided in functional (numpy, bit-exact) and timed
(simulator program) forms. The timed plane models the replica dimension
as a third ring sharing the vertical link budget (a 3D torus gives each
chip six links; we conservatively let the replica ring borrow the
vertical direction's second link, halving neither 2D ring).
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, List, Optional

from repro.algorithms.base import GeMMConfig
from repro.algorithms.cannon import CannonGeMM
from repro.algorithms.meshslice import MeshSliceGeMM
from repro.comm.cost import CommCostModel
from repro.core.dataflow import Dataflow
from repro.core.gemm import GeMMShape
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np

#: Resource name of the replica-dimension ring (3D torus third axis).
LINK_D = "link_d"


@dataclasses.dataclass(frozen=True)
class StackedConfig:
    """Configuration of a GeMM on a 3D ``base x copies`` cluster.

    Attributes:
        shape: The logical GeMM.
        base: The 2D base mesh (must be square for 2.5D).
        copies: Replication factor ``c`` along the third dimension.
        slices: MeshSlice slice count (ignored by 2.5D).
    """

    shape: GeMMShape
    base: Mesh2D
    copies: int
    slices: int = 1

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        if self.slices < 1:
            raise ValueError(f"slices must be >= 1, got {self.slices}")

    @property
    def chips(self) -> int:
        return self.base.size * self.copies


class TwoPointFiveDGeMM:
    """The 2.5D matrix multiplication algorithm [28]."""

    name = "2.5d"

    def check_support(self, cfg: StackedConfig) -> Optional[str]:
        if not cfg.base.is_square:
            return f"2.5D GeMM requires a square base mesh, got {cfg.base}"
        side = cfg.base.rows
        if side % cfg.copies != 0:
            return (
                f"replication factor {cfg.copies} must divide the base "
                f"side {side}"
            )
        return None

    def per_chip_traffic_bytes(self, cfg: StackedConfig) -> float:
        """Shift traffic per chip: ``(P/c) * (|A| + |B|) / P^2``.

        This is the quantity the paper's Section 7 example reports
        (1.6 GB for the GPT-3 FC layer on 16x16x4).
        """
        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        side = cfg.base.rows
        shifts = max(1, side // cfg.copies)
        return shifts * (cfg.shape.a_bytes + cfg.shape.b_bytes) / (side * side)

    def build_program(self, cfg: StackedConfig, hw: HardwareParams) -> Program:
        """Timed plane: skew + P/c shifts + replica reduce-scatter."""
        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        builder = ProgramBuilder(hw)
        side = cfg.base.rows
        chips = side * side
        a_shard = cfg.shape.a_bytes / chips
        b_shard = cfg.shape.b_bytes / chips
        c_shard = cfg.shape.c_bytes / chips
        steps = max(1, side // cfg.copies)
        m = max(1, cfg.shape.m // side)
        n = max(1, cfg.shape.n // side)
        k = max(1, cfg.shape.k // side)

        # Replicating the inputs onto the c layers: a broadcast along
        # the replica ring (both inputs move; the ring pipelines them).
        replicate = None
        if cfg.copies > 1:
            cost = self.costs(hw).allgather(cfg.copies, (a_shard + b_shard))
            replicate = builder.comm_on("replicate_ab", cost, (LINK_D,))

        skew_deps = [replicate] if replicate is not None else []
        skew_a = builder.sendrecv(
            "skew_a", a_shard, LINK_H, deps=skew_deps, hops=side // 2
        )
        skew_b = builder.sendrecv(
            "skew_b", b_shard, LINK_V, deps=skew_deps, hops=side // 2
        )
        prev_a, prev_b, gemm = skew_a, skew_b, None
        for step in range(steps):
            deps = [prev_a, prev_b]
            if gemm is not None:
                deps.append(gemm)
            # Each replica layer covers K/c of the contraction in P/c
            # steps, i.e. K/P per step and per chip.
            gemm = builder.gemm(f"gemm[{step}]", m, n, k, deps=deps)
            if step < steps - 1:
                prev_a = builder.sendrecv(
                    f"shift_a[{step}]", a_shard, LINK_H, deps=[prev_a]
                )
                prev_b = builder.sendrecv(
                    f"shift_b[{step}]", b_shard, LINK_V, deps=[prev_b]
                )
        if cfg.copies > 1:
            cost = self.costs(hw).reducescatter(cfg.copies, c_shard)
            builder.comm_on(
                "reduce_c", cost, (LINK_D,),
                deps=[gemm] if gemm is not None else (),
            )
        return builder.build(algorithm=self.name, config=cfg)

    @staticmethod
    def costs(hw: HardwareParams) -> CommCostModel:
        return CommCostModel(hw)

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: StackedConfig
    ) -> np.ndarray:
        """Bit-exact 2.5D execution: ``C = A @ B``.

        Each replica layer ``l`` handles the contraction slab
        ``K_l = [l K/c, (l+1) K/c)`` with Cannon over the base mesh,
        and the layers' partial outputs are summed (the replica-ring
        reduction).
        """
        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
        k = a.shape[1]
        if k % cfg.copies != 0:
            raise ValueError(
                f"contraction {k} must divide by copies {cfg.copies}"
            )
        slab = k // cfg.copies
        cannon = CannonGeMM()
        total = None
        for layer in range(cfg.copies):
            a_slab = a[:, layer * slab:(layer + 1) * slab]
            b_slab = b[layer * slab:(layer + 1) * slab, :]
            layer_cfg = GeMMConfig(
                GeMMShape(a.shape[0], b.shape[1], slab),
                cfg.base,
                Dataflow.OS,
            )
            partial = cannon.functional(a_slab, b_slab, layer_cfg)
            total = partial if total is None else total + partial
        return total


class MeshSliceDPGeMM:
    """MeshSlice on each 2D mesh plus data parallelism across replicas."""

    name = "meshslice+dp"

    def check_support(self, cfg: StackedConfig) -> Optional[str]:
        if cfg.shape.m % cfg.copies != 0:
            return (
                f"batch dimension {cfg.shape.m} must divide by the DP "
                f"factor {cfg.copies}"
            )
        return None

    def per_copy_shape(self, cfg: StackedConfig) -> GeMMShape:
        return GeMMShape(
            m=cfg.shape.m // cfg.copies,
            n=cfg.shape.n,
            k=cfg.shape.k,
            dtype_bytes=cfg.shape.dtype_bytes,
        )

    def per_chip_traffic_bytes(
        self, cfg: StackedConfig, dataflow: Dataflow = Dataflow.LS
    ) -> float:
        """2D flowing traffic plus the DP weight-gradient all-reduce."""
        from repro.algorithms.base import flow_ops, matrix_bytes

        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        shape = self.per_copy_shape(cfg)
        chips = cfg.base.size
        (col_op, col_mat), (row_op, row_mat) = flow_ops(dataflow)
        col = (cfg.base.cols - 1) * matrix_bytes(shape, col_mat) / chips
        row = (cfg.base.rows - 1) * matrix_bytes(shape, row_mat) / chips
        dp = 2.0 * (cfg.copies - 1) / cfg.copies * cfg.shape.b_bytes / chips
        return col + row + dp

    def build_program(
        self,
        cfg: StackedConfig,
        hw: HardwareParams,
        dataflow: Dataflow = Dataflow.LS,
    ) -> Program:
        """Timed plane: the 2D MeshSlice program plus an overlapped DP
        gradient all-reduce on the replica ring."""
        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        mesh_cfg = GeMMConfig(
            self.per_copy_shape(cfg), cfg.base, dataflow, slices=cfg.slices
        )
        program = MeshSliceGeMM().build_program(mesh_cfg, hw)
        if cfg.copies > 1:
            # All-reduce = RdS + AG of the local weight-gradient shard
            # over the replica ring; it overlaps the GeMM (classic DP).
            builder = ProgramBuilder.extending(program, hw)
            grad_shard = cfg.shape.b_bytes / cfg.base.size
            costs = CommCostModel(hw)
            rds = costs.reducescatter(cfg.copies, grad_shard / cfg.copies)
            ag = costs.allgather(cfg.copies, grad_shard / cfg.copies)
            first = builder.comm_on("dp_rds_w", rds, (LINK_D,))
            builder.comm_on("dp_ag_w", ag, (LINK_D,), deps=[first])
            program = builder.build(**program.meta)
        return program

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: StackedConfig
    ) -> np.ndarray:
        """Bit-exact MeshSlice+DP: each replica multiplies its batch
        slab with the full weight; results concatenate along M."""
        import numpy as np

        reason = self.check_support(cfg)
        if reason:
            raise ValueError(reason)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"contraction mismatch: A {a.shape} vs B {b.shape}")
        slab = a.shape[0] // cfg.copies
        meshslice = MeshSliceGeMM()
        parts: List[np.ndarray] = []
        for replica in range(cfg.copies):
            a_slab = a[replica * slab:(replica + 1) * slab, :]
            copy_cfg = GeMMConfig(
                GeMMShape(slab, b.shape[1], a.shape[1]),
                cfg.base,
                Dataflow.OS,
                slices=cfg.slices,
            )
            parts.append(meshslice.functional(a_slab, b, copy_cfg))
        return np.concatenate(parts, axis=0)


def square_bases(chips: int, copies: int) -> List[Mesh2D]:
    """Square base meshes available for 2.5D on a cluster."""
    if chips % copies != 0:
        return []
    base_chips = chips // copies
    side = math.isqrt(base_chips)
    if side * side != base_chips:
        return []
    return [Mesh2D(side, side)]
