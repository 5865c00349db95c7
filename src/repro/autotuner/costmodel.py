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
The search is a certified branch-and-bound (:func:`_cheapest`): every
valid ``S`` gets a memo-free lower bound
(:meth:`_SliceTerms.lower_bounds`), and only the counts whose bound
does not exceed the best total so far are estimated. The result is the
exhaustive scan's, to the bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

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
from repro.perf.pipeline import _BOUND_SAFETY
from repro.sim.chip import checksum_cost, gemm_cost, slice_cost


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


def _op_times(
    hw: HardwareParams, costs: List[CommCost], comm_transfer: float
) -> List[float]:
    """Durations of one slice's per-direction collectives (or epochs).

    ``comm_transfer`` is the wire time summed over both directions.
    """
    if not hw.has_shared_nic:
        return [c.total for c in costs]
    # Logical-mesh NIC bound (Section 6): while the directions'
    # transfers overlap they share the NIC, so an op's transfer cannot
    # beat the work-conserving time of the *combined* wire traffic;
    # synchronization and launch remain per-op serial terms.
    nic_floor = comm_transfer * hw.ring_bandwidth / hw.nic_bandwidth
    return [c.launch + c.sync + max(c.transfer, nic_floor) for c in costs]


def _pipelined(
    hw: HardwareParams,
    ag_times: List[float],
    rds_times: List[float],
    hbm_iter: float,
    core_iter: float,
) -> Tuple[float, float, float]:
    """(prologue, steady, epilogue) of one software-pipelined iteration.

    ``ag_times``/``rds_times`` are one slice's per-direction op times,
    ``hbm_iter`` the HBM time of one overlapped iteration and
    ``core_iter`` its core time.
    """
    if hw.overlap_collectives:
        prologue = max(ag_times, default=0.0)
        # HBM roofline of one overlapped iteration: the NIC's collective
        # traffic and the GeMM's tile traffic share the HBM, so a
        # steady-state iteration can take no less time than moving all
        # of those bytes. Dominates for memory-bound (inference-decode)
        # GeMMs, where slicing therefore stops paying off (Section 6).
        steady = max([core_iter, hbm_iter] + ag_times + rds_times)
        epilogue = core_iter + sum(rds_times)
        return prologue, steady, epilogue
    # Without overlap every iteration serializes its operations.
    iteration = sum(ag_times) + core_iter + sum(rds_times)
    return 0.0, iteration, iteration


class _SliceTerms:
    """The slice-count-invariant terms of one MeshSlice configuration.

    Built once per configuration (its ``slices`` field is ignored);
    :meth:`estimate` evaluates the closed form at one ``S`` and
    :meth:`lower_bounds` floors it for the search. The direct estimate
    and the slice-count search both go through :meth:`estimate`, so
    they run the same float operations in the same order and agree to
    the bit.
    """

    __slots__ = (
        "hw", "costs", "chips", "flows", "local_dims", "sliced_dim",
        "abft", "encode", "verify", "recompute", "sdc_rate", "collectives",
        "flops_per_chip",
    )

    #: Communication cost model of the per-slice collectives.
    cost_model = CommCostModel
    #: Whether each flowing input pays a local slicing copy per slice
    #: (Algorithm 2).
    slicing_copies = True

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

    def sliced_dims(self, slices: int) -> Tuple[int, int, int]:
        """Local kernel dims of one partial GeMM, sliced dim split S ways."""
        m, n, k = self.local_dims
        if self.sliced_dim == "k":
            k = _div(k, slices)
        elif self.sliced_dim == "n":
            n = _div(n, slices)
        else:
            m = _div(m, slices)
        return m, n, k

    def op_cost(self, op: str, ring: int, shard_bytes: float) -> CommCost:
        """One slice's collective of ``shard_bytes`` shards on ``ring``."""
        if op == "ag":
            return self.costs.allgather(ring, shard_bytes)
        return self.costs.reducescatter(ring, shard_bytes)

    def estimate(self, slices: int) -> CostEstimate:
        """The estimate at ``S = slices``."""
        hw = self.hw
        chips_slices = self.chips * slices
        ag_costs = []
        rds_costs = []
        core_extra = 0.0
        comm_hbm_bytes = 0.0
        comm_transfer = 0.0
        for op, payload, ring in self.flows:
            shard_bytes = payload / chips_slices
            if slices > 1 and self.slicing_copies:
                core_extra += slice_cost(shard_bytes, hw).seconds
            if ring <= 1:
                continue
            cost = self.op_cost(op, ring, shard_bytes)
            (ag_costs if op == "ag" else rds_costs).append(cost)
            comm_hbm_bytes += cost.hbm_bytes
            comm_transfer += cost.transfer

        gemm = gemm_cost(*self.sliced_dims(slices), hw)
        prologue, steady, epilogue = _pipelined(
            hw,
            _op_times(hw, ag_costs, comm_transfer),
            _op_times(hw, rds_costs, comm_transfer),
            (gemm.hbm_bytes + comm_hbm_bytes) / hw.hbm_bandwidth,
            gemm.seconds + core_extra,
        )
        abft_prologue, abft_epilogue = self.abft_overheads(slices)
        return CostEstimate(
            prologue=prologue + abft_prologue,
            steady=steady,
            epilogue=epilogue + abft_epilogue,
            slices=slices,
            flops_per_chip=self.flops_per_chip,
        )

    def lower_bounds(self, counts: Sequence[int]) -> List[float]:
        """A certified floor of ``estimate(S).total`` for each of ``counts``.

        Asks no memo. A flowing direction's op time is ``fixed + per /
        S``: the S = 1 op's launch and synchronization plus its transfer
        split S ways (on ``shared-nic``, at least the NIC's time for the
        combined traffic). The core time is at least ``t_kernel + 2 m n
        k_S / effective_flops``, since the chip model only pads FLOPs
        and adds slicing copies, and an overlapped iteration at least
        moves the collectives' HBM bytes. These go through
        :func:`_pipelined` with the exact ABFT terms, and the total is
        scaled by ``_BOUND_SAFETY`` against the rounding of the
        regrouped float operations.
        """
        hw = self.hw
        ags, rdss = [], []
        hbm_per = 0.0
        for op, payload, ring in self.flows:
            if ring > 1:
                unit = self.op_cost(op, ring, payload / self.chips)
                (ags if op == "ag" else rdss).append(
                    (unit.launch + unit.sync, unit.transfer)
                )
                hbm_per += unit.hbm_bytes
        if hw.has_shared_nic:
            nic_per = (
                sum(per for _fixed, per in ags + rdss)
                * hw.ring_bandwidth / hw.nic_bandwidth
            )
            ags = [(fixed, max(per, nic_per)) for fixed, per in ags]
            rdss = [(fixed, max(per, nic_per)) for fixed, per in rdss]
        hbm_per /= hw.hbm_bandwidth
        t_kernel = hw.t_kernel
        flop_rate = hw.effective_flops
        bounds = []
        for s in counts:
            m, n, k = self.sliced_dims(s)
            prologue, steady, epilogue = _pipelined(
                hw,
                [fixed + per / s for fixed, per in ags],
                [fixed + per / s for fixed, per in rdss],
                hbm_per / s,
                t_kernel + 2.0 * m * n * k / flop_rate,
            )
            abft_prologue, abft_epilogue = self.abft_overheads(s)
            total = (
                prologue + abft_prologue + (s - 1) * steady
                + epilogue + abft_epilogue
            )
            bounds.append(total * _BOUND_SAFETY)
        return bounds


class _OneSidedTerms(_SliceTerms):
    """The slice-count-invariant terms of one one-sided sliced config.

    Each flowing input's per-slice AllGather becomes a get epoch plus
    an epoch-closing fence, each ReduceScatter an accumulate epoch plus
    fence. Window addressing replaces MeshSlice's local slicing copies,
    so the iteration's core time is the partial GeMM alone.
    """

    __slots__ = ("fences",)

    cost_model = OneSidedCostModel
    slicing_copies = False

    def __init__(self, cfg: GeMMConfig, hw: HardwareParams):
        if cfg.abft:
            raise ValueError(
                "one-sided sliced GeMM does not support ABFT configurations"
            )
        super().__init__(cfg, hw)
        self.fences = {
            ring: self.costs.fence(ring)
            for _op, _payload, ring in self.flows if ring > 1
        }

    def op_cost(self, op: str, ring: int, shard_bytes: float) -> CommCost:
        if op == "ag":
            epoch = self.costs.epoch(ring, shard_bytes)
        else:
            epoch = self.costs.accumulate_epoch(ring, shard_bytes)
        return epoch + self.fences[ring]


def _cheapest(
    terms: _SliceTerms, counts: Sequence[int]
) -> Tuple[int, Optional[CostEstimate]]:
    """The smallest of ``counts`` with the smallest estimated total.

    Certified branch-and-bound: the counts are visited in ascending
    ``(lower bound, S)`` order and estimated only while the bound does
    not exceed the incumbent's total. A skipped count's total exceeds
    the final optimum, so it can neither win nor tie; with the tie
    rule below the result is the exhaustive scan's to the bit.
    """
    best_s, best, best_total = 1, None, 0.0
    for bound, s in sorted(zip(terms.lower_bounds(counts), counts)):
        if best is not None and bound > best_total:
            break
        estimate = terms.estimate(s)
        total = estimate.total
        if (
            best is None
            or total < best_total
            or (total == best_total and s < best_s)
        ):
            best_s, best, best_total = s, estimate, total
    return best_s, best


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
    ag_times, rds_times = [], []
    for op, payload, ring in terms.flows:
        if ring > 1:
            total = terms.op_cost(op, ring, payload / terms.chips).total
            (ag_times if op == "ag" else rds_times).append(total)
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
    """Pick the S minimizing the analytical estimate.

    Memoized on ``(cfg, hw, max_slices)``: every algorithm that shares
    MeshSlice's autotuned S re-tunes the same base configuration once
    per mesh candidate. The S-invariant terms are computed once, and
    each valid S that can still win (see :func:`_cheapest`) is
    evaluated with the same closed form as :func:`meshslice_estimate`.
    """
    return _best_slice_count(cfg, hw, max_slices)
