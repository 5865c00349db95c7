"""Bit-identity of the hoisted slice-count search against per-S oracles.

The cost model computes the S-invariant terms of a configuration once
and evaluates every slice count with one closed form. The oracles below
are the earlier per-S implementations, kept verbatim: each candidate
``S`` rebuilt a ``GeMMConfig`` and recomputed every term from scratch.
The search must pick the same ``S`` and return the same floats to the
bit, and raise the same errors, over fuzzed configurations on every
hardware preset.
"""

import dataclasses
import random

import pytest

from repro.algorithms.base import (
    GeMMConfig,
    abft_payload_factor,
    abft_protected_ops,
    collective_local_dims,
    flow_ops,
    matrix_bytes,
    sliced_local_dims,
)
from repro.autotuner.costmodel import (
    CostEstimate,
    best_slice_count,
    best_sliced_slice_count,
    collective_estimate,
    meshslice_estimate,
    sliced_estimate,
    valid_slice_counts_for,
)
from repro.comm.cost import CommCostModel
from repro.comm.onesided import OneSidedCostModel
from repro.core import Dataflow, GeMMShape
from repro.hw import get_preset, preset_names
from repro.mesh import Mesh2D
from repro.sim.chip import checksum_cost, gemm_cost, slice_cost


# --- Oracles: the per-S implementations, unmemoized. -----------------


def _abft_overheads(cfg, hw):
    if not cfg.abft:
        return 0.0, 0.0
    chips = cfg.mesh.size
    encode = 0.0
    for mat in ("a", "b"):
        elements = matrix_bytes(cfg.shape, mat) / (chips * cfg.shape.dtype_bytes)
        encode += checksum_cost(elements, hw).seconds
    out_elements = float(cfg.shape.m) * cfg.shape.n / chips
    epilogue = checksum_cost(2.0 * out_elements, hw).seconds
    probability = min(1.0, cfg.sdc_rate * abft_protected_ops(cfg))
    m, n, k = collective_local_dims(cfg)
    epilogue += probability * gemm_cost(m, n, k, hw).seconds
    return encode, epilogue


def oracle_meshslice_estimate(cfg, hw):
    costs = CommCostModel.for_hw(hw)
    chips = cfg.mesh.size
    slices = cfg.slices
    (col_op, col_mat), (row_op, row_mat) = flow_ops(cfg.dataflow, cfg.transposed)
    directions = [
        (col_op, col_mat, cfg.mesh.cols),
        (row_op, row_mat, cfg.mesh.rows),
    ]

    ag_costs = []
    rds_costs = []
    core_extra = 0.0
    comm_hbm_bytes = 0.0
    comm_transfer = 0.0
    for op, mat, ring in directions:
        shard_bytes = (
            matrix_bytes(cfg.shape, mat)
            * abft_payload_factor(cfg, mat)
            / (chips * slices)
        )
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

    def contended_total(cost):
        if not hw.has_shared_nic:
            return cost.total
        contended = max(
            cost.transfer,
            comm_transfer * hw.ring_bandwidth / hw.nic_bandwidth,
        )
        return cost.launch + cost.sync + contended

    ag_times = [contended_total(c) for c in ag_costs]
    rds_times = [contended_total(c) for c in rds_costs]

    m, n, k = sliced_local_dims(cfg, slices)
    gemm = gemm_cost(m, n, k, hw)
    core_iter = gemm.seconds + core_extra
    abft_prologue, abft_epilogue = _abft_overheads(cfg, hw)

    if hw.overlap_collectives:
        prologue = max(ag_times, default=0.0)
        hbm_iter = (gemm.hbm_bytes + comm_hbm_bytes) / hw.hbm_bandwidth
        steady = max([core_iter, hbm_iter] + ag_times + rds_times)
        epilogue = core_iter + sum(rds_times)
    else:
        iteration = sum(ag_times) + core_iter + sum(rds_times)
        prologue = 0.0
        steady = iteration
        epilogue = iteration
    return CostEstimate(
        prologue=prologue + abft_prologue,
        steady=steady,
        epilogue=epilogue + abft_epilogue,
        slices=slices,
        flops_per_chip=cfg.shape.flops / chips,
    )


def oracle_best_slice_count(cfg, hw, max_slices):
    best = (1, None)
    for s in valid_slice_counts_for(cfg, max_slices):
        candidate = dataclasses.replace(cfg, slices=s)
        estimate = oracle_meshslice_estimate(candidate, hw)
        if best[1] is None or estimate.total < best[1].total:
            best = (s, estimate)
    return best


def oracle_sliced_estimate(cfg, hw):
    if cfg.abft:
        raise ValueError(
            "one-sided sliced GeMM does not support ABFT configurations"
        )
    costs = OneSidedCostModel.for_hw(hw)
    chips = cfg.mesh.size
    slices = cfg.slices
    (col_op, col_mat), (row_op, row_mat) = flow_ops(cfg.dataflow, cfg.transposed)
    directions = [
        (col_op, col_mat, cfg.mesh.cols),
        (row_op, row_mat, cfg.mesh.rows),
    ]

    ag_costs = []
    rds_costs = []
    comm_hbm_bytes = 0.0
    comm_transfer = 0.0
    for op, mat, ring in directions:
        if ring <= 1:
            continue
        sub_bytes = matrix_bytes(cfg.shape, mat) / (chips * slices)
        if op == "ag":
            cost = costs.epoch(ring, sub_bytes) + costs.fence(ring)
            ag_costs.append(cost)
        else:
            cost = costs.accumulate_epoch(ring, sub_bytes) + costs.fence(ring)
            rds_costs.append(cost)
        comm_hbm_bytes += cost.hbm_bytes
        comm_transfer += cost.transfer

    def contended_total(cost):
        if not hw.has_shared_nic:
            return cost.total
        contended = max(
            cost.transfer,
            comm_transfer * hw.ring_bandwidth / hw.nic_bandwidth,
        )
        return cost.launch + cost.sync + contended

    ag_times = [contended_total(c) for c in ag_costs]
    rds_times = [contended_total(c) for c in rds_costs]

    m, n, k = sliced_local_dims(cfg, slices)
    gemm = gemm_cost(m, n, k, hw)
    core_iter = gemm.seconds

    if hw.overlap_collectives:
        prologue = max(ag_times, default=0.0)
        hbm_iter = (gemm.hbm_bytes + comm_hbm_bytes) / hw.hbm_bandwidth
        steady = max([core_iter, hbm_iter] + ag_times + rds_times)
        epilogue = core_iter + sum(rds_times)
    else:
        iteration = sum(ag_times) + core_iter + sum(rds_times)
        prologue = 0.0
        steady = iteration
        epilogue = iteration
    return CostEstimate(
        prologue=prologue,
        steady=steady,
        epilogue=epilogue,
        slices=slices,
        flops_per_chip=cfg.shape.flops / chips,
    )


def oracle_best_sliced_slice_count(cfg, hw, max_slices):
    best = (1, None)
    for s in valid_slice_counts_for(cfg, max_slices):
        candidate = dataclasses.replace(cfg, slices=s)
        estimate = oracle_sliced_estimate(candidate, hw)
        if best[1] is None or estimate.total < best[1].total:
            best = (s, estimate)
    return best


def oracle_collective_estimate(cfg, hw):
    base = dataclasses.replace(cfg, slices=1)
    costs = CommCostModel.for_hw(hw)
    chips = cfg.mesh.size
    (col_op, col_mat), (row_op, row_mat) = flow_ops(cfg.dataflow, cfg.transposed)
    ag_times, rds_times = [], []
    for op, mat, ring in (
        (col_op, col_mat, cfg.mesh.cols),
        (row_op, row_mat, cfg.mesh.rows),
    ):
        if ring <= 1:
            continue
        shard_bytes = (
            matrix_bytes(cfg.shape, mat)
            * abft_payload_factor(cfg, mat)
            / chips
        )
        if op == "ag":
            ag_times.append(costs.allgather(ring, shard_bytes).total)
        else:
            rds_times.append(costs.reducescatter(ring, shard_bytes).total)
    m, n, k = collective_local_dims(base)
    gemm = gemm_cost(m, n, k, hw)
    abft_prologue, abft_epilogue = _abft_overheads(base, hw)
    return CostEstimate(
        prologue=max(ag_times, default=0.0) + abft_prologue,
        steady=0.0,
        epilogue=gemm.seconds + max(rds_times, default=0.0) + abft_epilogue,
        slices=1,
        flops_per_chip=cfg.shape.flops / chips,
    )


# --- Fuzzed inputs. ---------------------------------------------------


def _hardware():
    """Every preset, plus the overlap-free variant of each overlapping one."""
    out = []
    for name in preset_names():
        hw = get_preset(name)
        out.append(hw)
        if hw.overlap_collectives:
            out.append(hw.with_overrides(
                name=f"{name}-no-overlap", overlap_collectives=False
            ))
    return out


HARDWARE = _hardware()

#: Extents with many divisors, plus odd and prime ones that leave only
#: ``S = 1`` or a non-divisible mesh. Those with factors 3 and 5 give
#: meshes and slice counts that are not powers of two, where dividing
#: by ``chips * S`` and dividing twice can round differently (it takes
#: a payload that ``chips`` does not divide, e.g. 240 on a 3 x 3 mesh).
DIMS = (1, 3, 7, 48, 96, 128, 240, 384, 720, 960, 1000, 1080, 1536,
        3600, 4096, 12288, 23040, 49152, 262144)

#: Meshes including degenerate 1 x N and N x 1 rings.
MESHES = ((1, 1), (1, 8), (8, 1), (1, 6), (5, 1), (1, 64), (32, 1),
          (2, 2), (4, 2), (2, 8), (8, 8), (3, 3), (3, 5), (6, 3), (6, 4),
          (16, 4), (12, 10), (32, 8))

#: ``(abft, sdc_rate)``: off, on without corruption, a small rate, and
#: one large enough to saturate the recompute probability at 1.
PROTECTION = ((False, 0.0), (True, 0.0), (True, 1e-4), (True, 0.2))

MAX_SLICES = (1, 4, 64)

CASES_PER_HW = 120


def _configs(hw_index):
    rng = random.Random(1000 + hw_index)
    for _ in range(CASES_PER_HW):
        abft, sdc_rate = rng.choice(PROTECTION)
        yield GeMMConfig(
            shape=GeMMShape(
                m=rng.choice(DIMS),
                n=rng.choice(DIMS),
                k=rng.choice(DIMS),
                dtype_bytes=rng.choice((1, 2, 4)),
            ),
            mesh=Mesh2D(*rng.choice(MESHES)),
            dataflow=rng.choice(list(Dataflow)),
            slices=rng.choice((1, 2, 4, 3)),
            transposed=rng.random() < 0.5,
            abft=abft,
            sdc_rate=sdc_rate,
        )


def _bits(estimate):
    """Every estimate field, floats as exact hex strings."""
    return (
        estimate.slices,
        float.hex(estimate.prologue),
        float.hex(estimate.steady),
        float.hex(estimate.epilogue),
        float.hex(estimate.total),
        float.hex(estimate.flops_per_chip),
    )


def _outcome(fn, *args):
    """A comparable record of ``fn(*args)``: its value or its error."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared below, not swallowed
        return ("raises", type(exc), str(exc))
    if isinstance(value, CostEstimate):
        return ("estimate", _bits(value))
    slices, estimate = value
    return ("search", slices, _bits(estimate))


PAIRS = (
    (best_slice_count, oracle_best_slice_count,
     meshslice_estimate, oracle_meshslice_estimate),
    (best_sliced_slice_count, oracle_best_sliced_slice_count,
     sliced_estimate, oracle_sliced_estimate),
)


@pytest.mark.parametrize(
    "hw_index", range(len(HARDWARE)), ids=[h.name for h in HARDWARE]
)
@pytest.mark.parametrize("family", (0, 1), ids=("meshslice", "sliced"))
def test_search_matches_per_s_oracle(hw_index, family):
    hw = HARDWARE[hw_index]
    search, oracle_search, estimate, oracle_estimate = PAIRS[family]
    checked = 0
    configs = list(_configs(hw_index))
    # Unprotected twins keep the one-sided family's coverage up.
    configs += [
        dataclasses.replace(cfg, abft=False, sdc_rate=0.0)
        for cfg in configs if cfg.abft
    ]
    for cfg in configs:
        for max_slices in MAX_SLICES:
            got = _outcome(search, cfg, hw, max_slices)
            assert got == _outcome(oracle_search, cfg, hw, max_slices), (
                cfg, max_slices
            )
            checked += got[0] == "search"
        # Direct estimates go through the same closed form at every S.
        for s in valid_slice_counts_for(cfg, 64):
            candidate = dataclasses.replace(cfg, slices=s)
            assert _outcome(estimate, candidate, hw) == _outcome(
                oracle_estimate, candidate, hw
            ), candidate
    # The one-sided family rejects every ABFT config; both families
    # must still have searched plenty of inputs.
    assert checked > CASES_PER_HW


@pytest.mark.parametrize(
    "hw_index", range(len(HARDWARE)), ids=[h.name for h in HARDWARE]
)
def test_collective_estimate_matches_oracle(hw_index):
    hw = HARDWARE[hw_index]
    for cfg in _configs(hw_index):
        assert _outcome(collective_estimate, cfg, hw) == _outcome(
            oracle_collective_estimate, cfg, hw
        ), cfg


def test_fuzz_covers_the_tricky_inputs():
    """The fuzzed inputs reach saturated ABFT probabilities, degenerate
    rings, multi-divisor searches and the shared-NIC bound."""
    configs = [cfg for i in range(len(HARDWARE)) for cfg in _configs(i)]
    assert any(
        cfg.abft and cfg.sdc_rate * abft_protected_ops(
            dataclasses.replace(cfg, slices=max(valid_slice_counts_for(cfg)))
        ) >= 1.0
        for cfg in configs
    )
    assert any(
        cfg.abft and 0.0 < cfg.sdc_rate * abft_protected_ops(cfg) < 1.0
        for cfg in configs
    )
    assert any(1 in (cfg.mesh.rows, cfg.mesh.cols) and cfg.mesh.size > 1
               for cfg in configs)
    assert sum(len(valid_slice_counts_for(cfg)) > 4 for cfg in configs) > 50

    def not_pow2(value):
        return value & (value - 1) != 0

    assert sum(
        not_pow2(cfg.mesh.size)
        and any(not_pow2(s) for s in valid_slice_counts_for(cfg))
        for cfg in configs
    ) > 50
    assert any(hw.has_shared_nic for hw in HARDWARE)
    assert any(not hw.overlap_collectives for hw in HARDWARE)
