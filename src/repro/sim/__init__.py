"""Cluster simulator: fluid DES engine, chip model, programs, traces."""

from repro.sim.chip import ComputeCost, effective_gemm_seconds, gemm_cost, slice_cost
from repro.sim.cluster import SimResult, combined_utilization, simulate
from repro.sim.engine import (
    CORE,
    HBM,
    LINK_H,
    LINK_V,
    NIC,
    Activity,
    Columns,
    Engine,
    SimFailure,
    SimulationError,
    Span,
    SpanTable,
    makespan,
)
from repro.sim.program import Program, ProgramBuilder
from repro.sim.trace import (
    DEFAULT_LANES,
    ZERO_BREAKDOWN,
    CommBreakdown,
    Trace,
    ascii_timeline,
)

__all__ = [
    "Activity",
    "CORE",
    "Columns",
    "CommBreakdown",
    "ComputeCost",
    "DEFAULT_LANES",
    "Engine",
    "HBM",
    "LINK_H",
    "LINK_V",
    "NIC",
    "Program",
    "ProgramBuilder",
    "SimFailure",
    "SimResult",
    "SimulationError",
    "Span",
    "SpanTable",
    "Trace",
    "ZERO_BREAKDOWN",
    "ascii_timeline",
    "combined_utilization",
    "effective_gemm_seconds",
    "gemm_cost",
    "makespan",
    "simulate",
    "slice_cost",
]
