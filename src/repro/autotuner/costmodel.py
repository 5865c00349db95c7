"""Autotuner Phase 2 cost models (Section 3.2.2).

Closed-form estimates of MeshSlice execution time, built from the
linear communication model

    ``cost_op = t_launch + (P - 1) * (t_sync + sizeof(shard) / bw)``

and the analytical compute model (local FLOPs over effective
throughput). The per-layer execution time follows the paper's
three-part decomposition::

    total = prologue + (S - 1) * steady_state + epilogue

where the prologue is the first iteration's communication that software
pipelining cannot hide (the longest of the leading AllGathers), the
steady state is the longest of the per-iteration operations (the
partial GeMM on the core, or either direction's collective on its
link), and the epilogue is the last iteration's trailing work (the
partial GeMM, plus the final ReduceScatter for LS/RS dataflows).

Everything that does not depend on ``S`` — flowing payloads, local
kernel dimensions, ABFT encode/verify/recompute costs — is computed
once per configuration (:class:`_SliceTerms`); the slice-count search
and the direct estimates then evaluate the same per-``S`` closed form.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, List, Optional, Tuple

from repro.algorithms.base import (
    GeMMConfig,
    _div,
    abft_payload_factor,
    collective_local_dims,
    effective_problem,
    flow_ops,
    matrix_bytes,
)
from repro.comm.cost import CommCost, CommCostModel
from repro.comm.onesided import OneSidedCostModel
from repro.core.dataflow import sliced_dimension, sliced_extent
from repro.hw.params import HardwareParams
from repro.mesh.topology import divisors
from repro.perf.cache import memoize
from repro.sim.chip import ComputeCost, checksum_cost, gemm_cost, slice_cost


@dataclasses.dataclass(frozen=True)
class CostEstimate:
    """Analytical execution-time estimate of one distributed GeMM."""

    prologue: float
    steady: float
    epilogue: float
    slices: int
    flops_per_chip: float

    @property
    def total(self) -> float:
        return self.prologue + max(self.slices - 1, 0) * self.steady + self.epilogue

    def flop_utilization(self, hw: HardwareParams) -> float:
        if self.total <= 0:
            return 0.0
        return self.flops_per_chip / (self.total * hw.peak_flops)


def _pipelined(
    hw: HardwareParams,
    ag_costs: List[CommCost],
    rds_costs: List[CommCost],
    comm_hbm_bytes: float,
    comm_transfer: float,
    gemm_hbm_bytes: float,
    core_iter: float,
) -> Tuple[float, float, float]:
    """(prologue, steady, epilogue) of one software-pipelined iteration.

    ``ag_costs``/``rds_costs`` are one slice's per-direction collectives
    (or one-sided epochs), ``comm_hbm_bytes``/``comm_transfer`` their
    summed HBM traffic and wire time, and ``core_iter`` the core time
    of one iteration.
    """
    if hw.has_shared_nic:
        # Logical-mesh NIC bound (Section 6): while the directions'
        # transfers overlap they share the NIC, so an op's transfer
        # cannot beat the work-conserving time of the *combined* wire
        # traffic; synchronization and launch remain per-op serial terms.
        nic_floor = comm_transfer * hw.ring_bandwidth / hw.nic_bandwidth

        def op_time(cost: CommCost) -> float:
            return cost.launch + cost.sync + max(cost.transfer, nic_floor)

        ag_times = [op_time(c) for c in ag_costs]
        rds_times = [op_time(c) for c in rds_costs]
    else:
        ag_times = [c.total for c in ag_costs]
        rds_times = [c.total for c in rds_costs]

    if hw.overlap_collectives:
        prologue = max(ag_times, default=0.0)
        # HBM roofline of one overlapped iteration: the NIC's collective
        # traffic and the GeMM's tile traffic share the HBM, so a
        # steady-state iteration can take no less time than moving all
        # of those bytes. Dominates for memory-bound (inference-decode)
        # GeMMs, where slicing therefore stops paying off (Section 6).
        hbm_iter = (gemm_hbm_bytes + comm_hbm_bytes) / hw.hbm_bandwidth
        steady = max([core_iter, hbm_iter] + ag_times + rds_times)
        epilogue = core_iter + sum(rds_times)
        return prologue, steady, epilogue
    # Without overlap every iteration serializes its operations.
    iteration = sum(ag_times) + core_iter + sum(rds_times)
    return 0.0, iteration, iteration


class _SliceTerms:
    """The slice-count-invariant terms of one MeshSlice configuration.

    Built once per configuration (its ``slices`` field is ignored);
    :meth:`estimate` evaluates the closed form at one ``S``. The direct
    estimate and the slice-count search both go through it, so they
    run the same float operations in the same order and agree to the
    bit.
    """

    __slots__ = (
        "hw", "costs", "chips", "flows", "local_dims", "sliced_dim",
        "abft", "encode", "verify", "recompute", "sdc_rate", "collectives",
        "flops_per_chip",
    )

    #: Communication cost model of the per-slice collectives.
    cost_model = CommCostModel

    def __init__(self, cfg: GeMMConfig, hw: HardwareParams):
        self.hw = hw
        self.costs = self.cost_model.for_hw(hw)
        chips = self.chips = cfg.mesh.size
        (col_op, col_mat), (row_op, row_mat) = flow_ops(
            cfg.dataflow, cfg.transposed
        )
        # (collective, whole flowing payload incl. ABFT checksums, ring)
        # per direction: inter-column first, then inter-row.
        self.flows = tuple(
            (op, matrix_bytes(cfg.shape, mat) * abft_payload_factor(cfg, mat), ring)
            for op, mat, ring in (
                (col_op, col_mat, cfg.mesh.cols),
                (row_op, row_mat, cfg.mesh.rows),
            )
        )
        self.local_dims = collective_local_dims(cfg)
        self.sliced_dim = sliced_dimension(effective_problem(cfg)[1])
        self.abft = cfg.abft
        if cfg.abft:
            # Mirrors the program builders: both operands are
            # checksum-encoded up front (prologue), and the output is
            # verified — plus recomputed with the expected-value
            # probability of at least one silent flip — after the last
            # iteration (epilogue).
            encode = 0.0
            for mat in ("a", "b"):
                elements = matrix_bytes(cfg.shape, mat) / (
                    chips * cfg.shape.dtype_bytes
                )
                encode += checksum_cost(elements, hw).seconds
            self.encode = encode
            out_elements = float(cfg.shape.m) * cfg.shape.n / chips
            self.verify = checksum_cost(2.0 * out_elements, hw).seconds
            self.recompute = gemm_cost(*self.local_dims, hw).seconds
            self.sdc_rate = cfg.sdc_rate
            self.collectives = sum(
                1 for ring in (cfg.mesh.cols, cfg.mesh.rows) if ring > 1
            )
        self.flops_per_chip = cfg.shape.flops / chips

    def abft_overheads(self, slices: int) -> Tuple[float, float]:
        """ABFT (prologue, epilogue) seconds at ``S = slices``.

        Zero for unprotected configs. The recompute probability scales
        with ``abft_protected_ops`` — one partial GeMM plus one
        collective per non-trivial ring, per slice — so it is the one
        ABFT term evaluated per ``S``.
        """
        if not self.abft:
            return 0.0, 0.0
        probability = min(1.0, self.sdc_rate * (slices * (1 + self.collectives)))
        return self.encode, self.verify + probability * self.recompute

    def local_gemm(self, slices: int) -> ComputeCost:
        """Cost of one partial GeMM with the sliced dimension split S ways."""
        m, n, k = self.local_dims
        if self.sliced_dim == "k":
            k = _div(k, slices)
        elif self.sliced_dim == "n":
            n = _div(n, slices)
        else:
            m = _div(m, slices)
        return gemm_cost(m, n, k, self.hw)

    def estimate(self, slices: int) -> CostEstimate:
        """The MeshSlice estimate at ``S = slices``."""
        hw = self.hw
        costs = self.costs
        chips_slices = self.chips * slices
        ag_costs = []
        rds_costs = []
        core_extra = 0.0
        comm_hbm_bytes = 0.0
        comm_transfer = 0.0
        for op, payload, ring in self.flows:
            shard_bytes = payload / chips_slices
            if slices > 1:
                core_extra += slice_cost(shard_bytes, hw).seconds
            if ring <= 1:
                continue
            if op == "ag":
                cost = costs.allgather(ring, shard_bytes)
                ag_costs.append(cost)
            else:
                cost = costs.reducescatter(ring, shard_bytes)
                rds_costs.append(cost)
            comm_hbm_bytes += cost.hbm_bytes
            comm_transfer += cost.transfer

        gemm = self.local_gemm(slices)
        prologue, steady, epilogue = _pipelined(
            hw, ag_costs, rds_costs, comm_hbm_bytes, comm_transfer,
            gemm.hbm_bytes, gemm.seconds + core_extra,
        )
        abft_prologue, abft_epilogue = self.abft_overheads(slices)
        return CostEstimate(
            prologue=prologue + abft_prologue,
            steady=steady,
            epilogue=epilogue + abft_epilogue,
            slices=slices,
            flops_per_chip=self.flops_per_chip,
        )


class _OneSidedTerms(_SliceTerms):
    """The slice-count-invariant terms of one one-sided sliced config."""

    __slots__ = ("fences",)

    cost_model = OneSidedCostModel

    def __init__(self, cfg: GeMMConfig, hw: HardwareParams):
        if cfg.abft:
            raise ValueError(
                "one-sided sliced GeMM does not support ABFT configurations"
            )
        super().__init__(cfg, hw)
        self.fences = tuple(
            self.costs.fence(ring) if ring > 1 else None
            for _op, _payload, ring in self.flows
        )

    def estimate(self, slices: int) -> CostEstimate:
        """The one-sided sliced estimate at ``S = slices``."""
        hw = self.hw
        costs = self.costs
        chips_slices = self.chips * slices
        ag_costs = []
        rds_costs = []
        comm_hbm_bytes = 0.0
        comm_transfer = 0.0
        for (op, payload, ring), fence in zip(self.flows, self.fences):
            if ring <= 1:
                continue
            sub_bytes = payload / chips_slices
            if op == "ag":
                cost = costs.epoch(ring, sub_bytes) + fence
                ag_costs.append(cost)
            else:
                cost = costs.accumulate_epoch(ring, sub_bytes) + fence
                rds_costs.append(cost)
            comm_hbm_bytes += cost.hbm_bytes
            comm_transfer += cost.transfer

        # Window addressing replaces MeshSlice's local slicing copies, so
        # there is no per-slice core extra — the iteration's core time is
        # the partial GeMM alone.
        gemm = self.local_gemm(slices)
        prologue, steady, epilogue = _pipelined(
            hw, ag_costs, rds_costs, comm_hbm_bytes, comm_transfer,
            gemm.hbm_bytes, gemm.seconds,
        )
        return CostEstimate(
            prologue=prologue,
            steady=steady,
            epilogue=epilogue,
            slices=slices,
            flops_per_chip=self.flops_per_chip,
        )


def _cheapest(
    terms: _SliceTerms, counts: Iterable[int]
) -> Tuple[int, Optional[CostEstimate]]:
    """The first of ``counts`` with the smallest estimated total."""
    best: Tuple[int, Optional[CostEstimate]] = (1, None)
    best_total = 0.0
    for s in counts:
        estimate = terms.estimate(s)
        total = estimate.total
        if best[1] is None or total < best_total:
            best = (s, estimate)
            best_total = total
    return best


@memoize("meshslice_estimate")
def _meshslice_estimate(cfg: GeMMConfig, hw: HardwareParams) -> CostEstimate:
    return _SliceTerms(cfg, hw).estimate(cfg.slices)


def meshslice_estimate(cfg: GeMMConfig, hw: HardwareParams) -> CostEstimate:
    """Estimate the MeshSlice program of ``cfg`` without simulating it.

    Memoized on ``(cfg, hw)``: the mesh-shape candidate ranking and the
    figure sweeps re-request identical estimates many times.
    """
    return _meshslice_estimate(cfg, hw)


@memoize("sliced_estimate")
def _sliced_estimate(cfg: GeMMConfig, hw: HardwareParams) -> CostEstimate:
    return _OneSidedTerms(cfg, hw).estimate(cfg.slices)


def sliced_estimate(cfg: GeMMConfig, hw: HardwareParams) -> CostEstimate:
    """Estimate the one-sided sliced program of ``cfg`` analytically.

    The one-sided analogue of :func:`meshslice_estimate`, mirroring
    ``SlicedGeMM.build_program``: each flowing input's per-slice
    AllGather becomes a get epoch plus an epoch-closing fence, each
    ReduceScatter an accumulate epoch plus fence, and the local slicing
    copies disappear (the get window *is* the slice). The sync
    economics therefore differ structurally from the ring collectives —
    ``ceil(log2 P)`` fence rounds per slice instead of ``P - 1`` ring
    steps — which is why the one-sided slice-count optimum diverges
    from MeshSlice's in latency-bound regimes. Memoized on
    ``(cfg, hw)`` like the MeshSlice estimate.
    """
    return _sliced_estimate(cfg, hw)


@memoize("best_sliced_slice_count")
def _best_sliced_slice_count(
    cfg: GeMMConfig, hw: HardwareParams, max_slices: int
) -> Tuple[int, CostEstimate]:
    counts = valid_slice_counts_for(cfg, max_slices)
    return _cheapest(_OneSidedTerms(cfg, hw), counts)


def best_sliced_slice_count(
    cfg: GeMMConfig, hw: HardwareParams, max_slices: int = 64
) -> Tuple[int, CostEstimate]:
    """Pick the S minimizing the *one-sided* analytical estimate.

    The ``sliced`` algorithm's own granularity tuner: fences amortize
    differently from ring synchronization, so borrowing MeshSlice's S
    (the pre-elastic behaviour) systematically under-slices one-sided
    programs on latency-bound hardware. Memoized like
    :func:`best_slice_count`.
    """
    return _best_sliced_slice_count(cfg, hw, max_slices)


def collective_estimate(cfg: GeMMConfig, hw: HardwareParams) -> CostEstimate:
    """Estimate the Collective 2D GeMM (the S = 1 degenerate case)."""
    terms = _SliceTerms(cfg, hw)
    costs = terms.costs
    ag_times, rds_times = [], []
    for op, payload, ring in terms.flows:
        if ring <= 1:
            continue
        shard_bytes = payload / terms.chips
        if op == "ag":
            ag_times.append(costs.allgather(ring, shard_bytes).total)
        else:
            rds_times.append(costs.reducescatter(ring, shard_bytes).total)
    gemm = gemm_cost(*terms.local_dims, hw)
    abft_prologue, abft_epilogue = terms.abft_overheads(1)
    return CostEstimate(
        prologue=max(ag_times, default=0.0) + abft_prologue,
        steady=0.0,
        epilogue=gemm.seconds + max(rds_times, default=0.0) + abft_epilogue,
        slices=1,
        flops_per_chip=terms.flops_per_chip,
    )


def valid_slice_counts_for(
    cfg: GeMMConfig, max_slices: int = 64
) -> List[int]:
    """Slice counts compatible with ``cfg``'s mesh and sliced dimension.

    ``S`` must divide the sliced dimension's local extent on both the
    row and the column partitioning (Section 3.1.2); the search is
    capped at ``max_slices`` since larger counts only add overhead.
    """
    shape, dataflow = effective_problem(cfg)
    extent = sliced_extent(shape, dataflow)
    if extent % cfg.mesh.rows != 0 or extent % cfg.mesh.cols != 0:
        return [1]
    g = math.gcd(extent // cfg.mesh.rows, extent // cfg.mesh.cols)
    return [s for s in divisors(g) if s <= max_slices] or [1]


@memoize("best_slice_count")
def _best_slice_count(
    cfg: GeMMConfig, hw: HardwareParams, max_slices: int
) -> Tuple[int, CostEstimate]:
    # The terms keep every other knob (abft, sdc_rate, ...) so
    # protection overhead shapes the slice-count optimum.
    counts = valid_slice_counts_for(cfg, max_slices)
    return _cheapest(_SliceTerms(cfg, hw), counts)


def best_slice_count(
    cfg: GeMMConfig, hw: HardwareParams, max_slices: int = 64
) -> Tuple[int, CostEstimate]:
    """Exhaustively pick the S minimizing the analytical estimate.

    Memoized on ``(cfg, hw, max_slices)``: every algorithm that shares
    MeshSlice's autotuned S re-tunes the same base configuration once
    per mesh candidate. The S-invariant terms are computed once and
    each valid S is evaluated with the same closed form as
    :func:`meshslice_estimate`.
    """
    return _best_slice_count(cfg, hw, max_slices)
