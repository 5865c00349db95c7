"""MeshSlice: efficient 2D tensor parallelism for distributed DNN training.

A from-scratch reproduction of the ISCA 2025 paper. The package is
organized in two planes that share the same algorithm descriptions:

* a **functional plane** (numpy, bit-exact) proving each distributed
  GeMM algorithm computes the right answer using only legal per-chip
  data movement, and
* a **timing plane** (a fluid discrete-event simulator of TPUv4-like
  clusters) reproducing the paper's performance evaluation.

Quickstart::

    import numpy as np
    from repro import Mesh2D, meshslice_os

    a, b = np.random.rand(64, 96), np.random.rand(96, 128)
    c = meshslice_os(a, b, Mesh2D(4, 2), slices=4)
    assert np.allclose(c, a @ b)

The timing plane is one import away — the stable entry points are
:func:`simulate` (run a built program on a hardware preset, optionally
under a :class:`FaultPlan`), :class:`TuneRequest` (the autotuner,
nominal, fault-aware and degraded: ``TuneRequest(...).run()``), and
:func:`get_algorithm` / :func:`algorithm_names` (the distributed GeMM
algorithm registry)::

    from repro import TPUV4, get_algorithm, simulate

    alg = get_algorithm("meshslice")
    result = simulate(alg.build_program(cfg, TPUV4), TPUV4)

These names load lazily (PEP 562), so ``import repro`` stays cheap: it
imports the GeMM shapes, hardware presets and mesh topologies, and no
numpy. numpy loads on first access to a functional-plane name
(``meshslice_gemm``/``_os``/``_ls``/``_rs``, ``slice_col``/``slice_row``,
``valid_slice_counts``, ``MeshExecutor``, ``abft_gemm``, ``ABFTReport``,
``SDCPlan``, ``NULL_SDC_PLAN``, ``sdc_injection``); the timing-plane
names (``simulate``, ``TuneRequest``, ``get_algorithm``, ...) never load
it.

See ``README.md`` and ``docs/`` for the architecture, ``DESIGN.md`` for
the system inventory, and ``EXPERIMENTS.md`` for the paper-vs-
reproduction results.
"""

from repro._lazy import lazy_exports
from repro.core import Dataflow, GeMMShape
from repro.hw import (
    GPU_LOGICAL_MESH,
    TPUV4,
    TPUV4_CLOUD_4X4,
    HardwareParams,
    get_preset,
)
from repro.mesh import Mesh2D, Ring1D, mesh_shapes

__version__ = "1.9.0"

#: Lazily-loaded stable API (PEP 562): name -> defining module.
#: Importing these eagerly would pull the whole timing plane, and numpy
#: through the functional plane, into every ``import repro``.
_LAZY_EXPORTS = {
    "ABFTReport": "repro.abft",
    "CampaignRunner": "repro.campaign",
    "CampaignSpec": "repro.campaign",
    "CampaignStore": "repro.campaign",
    "CheckpointModel": "repro.recovery",
    "FaultPlan": "repro.faults",
    "FaultSpec": "repro.faults",
    "HardFault": "repro.faults",
    "LifetimeResult": "repro.recovery",
    "LifetimeSpec": "repro.recovery",
    "MeshExecutor": "repro.mesh",
    "MetricsRegistry": "repro.obs",
    "NULL_PLAN": "repro.faults",
    "NULL_SDC_PLAN": "repro.faults",
    "PlanStore": "repro.service",
    "ProfileReport": "repro.obs",
    "ReshardPlan": "repro.recovery",
    "RetryPolicy": "repro.recovery",
    "RunMetrics": "repro.obs",
    "SDCPlan": "repro.faults",
    "SimFailure": "repro.sim.engine",
    "SimResult": "repro.sim.cluster",
    "TableElasticPlanner": "repro.recovery",
    "Trace": "repro.sim.trace",
    "TuneRequest": "repro.service",
    "TunedElasticPlanner": "repro.recovery",
    "TunerService": "repro.service",
    "abft_gemm": "repro.abft",
    "algorithm_names": "repro.algorithms",
    "chip_down": "repro.faults",
    "get_algorithm": "repro.algorithms",
    "link_down": "repro.faults",
    "meshslice_gemm": "repro.core",
    "meshslice_ls": "repro.core",
    "meshslice_os": "repro.core",
    "meshslice_rs": "repro.core",
    "migration_seconds": "repro.recovery",
    "profile_block": "repro.obs",
    "retune_degraded": "repro.recovery",
    "sdc_injection": "repro.faults",
    "simulate": "repro.sim.cluster",
    "simulate_lifetime": "repro.recovery",
    "slice_col": "repro.core",
    "slice_row": "repro.core",
    "valid_slice_counts": "repro.core",
}

__all__ = [
    "ABFTReport",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "CheckpointModel",
    "Dataflow",
    "FaultPlan",
    "FaultSpec",
    "GPU_LOGICAL_MESH",
    "GeMMShape",
    "HardFault",
    "HardwareParams",
    "LifetimeResult",
    "LifetimeSpec",
    "Mesh2D",
    "MeshExecutor",
    "MetricsRegistry",
    "NULL_PLAN",
    "NULL_SDC_PLAN",
    "PlanStore",
    "ReshardPlan",
    "SDCPlan",
    "TableElasticPlanner",
    "TunedElasticPlanner",
    "ProfileReport",
    "RetryPolicy",
    "Ring1D",
    "RunMetrics",
    "SimFailure",
    "SimResult",
    "TPUV4",
    "TPUV4_CLOUD_4X4",
    "Trace",
    "TuneRequest",
    "TunerService",
    "abft_gemm",
    "algorithm_names",
    "chip_down",
    "get_algorithm",
    "get_preset",
    "link_down",
    "mesh_shapes",
    "meshslice_gemm",
    "migration_seconds",
    "meshslice_ls",
    "meshslice_os",
    "meshslice_rs",
    "profile_block",
    "retune_degraded",
    "sdc_injection",
    "simulate",
    "simulate_lifetime",
    "slice_col",
    "slice_row",
    "valid_slice_counts",
    "__version__",
]


__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
