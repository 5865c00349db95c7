"""Collective communication: functional ring collectives and cost models."""

from repro._lazy import lazy_exports
from repro.comm.cost import ZERO_COST, CommCost, CommCostModel
from repro.comm import onesided
from repro.comm.onesided import OneSidedCostModel, ring_hops

#: numpy-backed functional collectives, imported on first access (PEP 562).
_LAZY_EXPORTS = {
    "ag_col": "repro.comm.ops",
    "ag_row": "repro.comm.ops",
    "bcast_col": "repro.comm.ops",
    "bcast_row": "repro.comm.ops",
    "rds_col": "repro.comm.ops",
    "rds_row": "repro.comm.ops",
    "reduce_col": "repro.comm.ops",
    "reduce_row": "repro.comm.ops",
    "ring_allgather": "repro.comm.ops",
    "ring_reducescatter": "repro.comm.ops",
    "shift_col": "repro.comm.ops",
    "shift_row": "repro.comm.ops",
}

__all__ = [
    "ring_allgather",
    "ring_reducescatter",
    "CommCost",
    "CommCostModel",
    "OneSidedCostModel",
    "ZERO_COST",
    "onesided",
    "ring_hops",
    "ag_col",
    "ag_row",
    "bcast_col",
    "bcast_row",
    "rds_col",
    "rds_row",
    "reduce_col",
    "reduce_row",
    "shift_col",
    "shift_row",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
