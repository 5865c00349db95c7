"""Autotuner Phase 2: mesh shape and slice count co-optimization.

For every candidate mesh shape of the cluster, the autotuner tunes the
slice count ``S_i`` of each FC-layer training GeMM independently (their
optima do not interact, Section 3.2.2) using the analytical cost
models, then picks the mesh shape with the shortest total FC execution
time. The search space is small — a handful of integer factorizations
times a handful of divisors — so tuning completes in well under a
second.

:func:`robust_tune_model` adds a fault-aware mode on top: instead of the
nominal analytical block time, the mesh shape is chosen to minimize a
tail quantile (p95 by default) of the *simulated* block time over a
seeded ensemble of :class:`repro.faults.FaultPlan` realizations — the
deployment question "which shape degrades most gracefully when chips
straggle and links degrade", which the nominal tuner cannot see.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import GeMMConfig
from repro.autotuner.costmodel import CostEstimate, best_slice_count
from repro.autotuner.dataflow import LayerPlan, PassPlan, plan_model
from repro.faults import FaultPlan, FaultSpec
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D, mesh_shapes
from repro.models.config import LLMConfig
from repro.obs.registry import registry as _metrics


@dataclasses.dataclass(frozen=True)
class TunedPass:
    """A tuned configuration for one training GeMM of one layer."""

    layer_name: str
    plan: PassPlan
    slices: int
    estimate: CostEstimate
    abft: bool = False
    sdc_rate: float = 0.0

    def config(self, mesh: Mesh2D) -> GeMMConfig:
        return GeMMConfig(
            shape=self.plan.shape,
            mesh=mesh,
            dataflow=self.plan.dataflow,
            slices=self.slices,
            transposed=self.plan.transposed,
            abft=self.abft,
            sdc_rate=self.sdc_rate,
        )


@dataclasses.dataclass(frozen=True)
class TuningResult:
    """Output of the full autotuner run.

    Attributes:
        mesh: The selected mesh shape.
        passes: Tuned per-layer, per-pass configurations (one block).
        block_seconds: Estimated FC execution time of one block.
        per_mesh_seconds: Estimated block time of every candidate shape
            (for reporting the shape sensitivity of Figure 13).
    """

    mesh: Mesh2D
    passes: Tuple[TunedPass, ...]
    block_seconds: float
    per_mesh_seconds: Dict[Tuple[int, int], float]

    def slices_for(self, layer_name: str, pass_name: str) -> int:
        for tuned in self.passes:
            if (
                tuned.layer_name == layer_name
                and tuned.plan.pass_name == pass_name
            ):
                return tuned.slices
        raise KeyError(f"no tuned pass {layer_name}/{pass_name}")


def tune_mesh(
    plans: Sequence[LayerPlan],
    mesh: Mesh2D,
    hw: HardwareParams,
    max_slices: int = 64,
    abft: bool = False,
    sdc_rate: float = 0.0,
) -> Tuple[List[TunedPass], float]:
    """Tune every pass's slice count for one fixed mesh shape.

    With ``abft=True`` the slice-count search optimizes the *protected*
    analytical estimate — checksum encodes, enlarged collective
    payloads, and the verify/expected-recompute epilogue all count.
    """
    tuned: List[TunedPass] = []
    total = 0.0
    for plan in plans:
        for pass_plan in plan.passes:
            cfg = GeMMConfig(
                shape=pass_plan.shape,
                mesh=mesh,
                dataflow=pass_plan.dataflow,
                slices=1,
                transposed=pass_plan.transposed,
                abft=abft,
                sdc_rate=sdc_rate,
            )
            slices, estimate = best_slice_count(cfg, hw, max_slices)
            tuned.append(
                TunedPass(
                    layer_name=plan.layer.name,
                    plan=pass_plan,
                    slices=slices,
                    estimate=estimate,
                    abft=abft,
                    sdc_rate=sdc_rate,
                )
            )
            total += estimate.total
    return tuned, total


def tune_model(
    model: LLMConfig,
    batch_size: int,
    chips: int,
    hw: HardwareParams,
    optimize_dataflow: bool = True,
    mesh_candidates: Optional[Sequence[Mesh2D]] = None,
    min_mesh_dim: int = 2,
    max_slices: int = 64,
    abft: bool = False,
    sdc_rate: float = 0.0,
) -> TuningResult:
    """Run both autotuner phases for an LLM training configuration.

    Args:
        model: The LLM architecture.
        batch_size: Global batch size (sequences).
        chips: Cluster size (number of accelerator chips).
        hw: Hardware parameters.
        optimize_dataflow: Phase-1 on/off (Table 2's comparison).
        mesh_candidates: Candidate torus shapes; defaults to all
            factorizations of ``chips`` with both dims >= ``min_mesh_dim``.
        max_slices: Upper bound of the slice-count search.
        abft: Tune for ABFT-protected GeMMs (checksum overhead counts).
        sdc_rate: Per-protected-op silent-corruption probability used
            by the expected-recompute term of the protected estimate.
    """
    tokens = model.tokens(batch_size)
    plans = plan_model(model, tokens, optimize_dataflow=optimize_dataflow)
    if mesh_candidates is not None:
        candidates = list(mesh_candidates)
    else:
        candidates = mesh_shapes(chips, min_dim=min_mesh_dim)
    if not candidates:
        raise ValueError(f"no candidate mesh shapes for {chips} chips")

    best: Optional[TuningResult] = None
    per_mesh: Dict[Tuple[int, int], float] = {}
    for mesh in candidates:
        tuned, total = tune_mesh(
            plans, mesh, hw, max_slices, abft=abft, sdc_rate=sdc_rate
        )
        per_mesh[mesh.shape] = total
        if best is None or total < best.block_seconds:
            best = TuningResult(
                mesh=mesh,
                passes=tuple(tuned),
                block_seconds=total,
                per_mesh_seconds={},
            )
    reg = _metrics()
    reg.inc("tuner.runs", labels={"model": model.name})
    reg.inc("tuner.meshes_searched", float(len(candidates)))
    return dataclasses.replace(best, per_mesh_seconds=per_mesh)


# --------------------------------------------------------------- robust mode


@dataclasses.dataclass(frozen=True)
class RobustTuningResult:
    """Output of :func:`robust_tune_model`.

    Attributes:
        mesh: The mesh shape minimizing the robust objective.
        passes: Tuned per-layer, per-pass configurations (slice counts
            are tuned nominally; the mesh choice is what the fault
            ensemble decides).
        quantile: The optimized tail quantile (0.95 = p95).
        robust_seconds: The optimized objective — the ensemble
            ``quantile`` of the simulated FC block time on ``mesh``.
        mean_seconds: Ensemble mean block time on ``mesh``.
        nominal_seconds: Simulated block time on ``mesh`` with no
            faults (the clean baseline the inflation is judged against).
        per_mesh_robust: Robust objective of every candidate shape.
        fault_plans: The sampled ensemble (reproducible from the spec).
    """

    mesh: Mesh2D
    passes: Tuple[TunedPass, ...]
    quantile: float
    robust_seconds: float
    mean_seconds: float
    nominal_seconds: float
    per_mesh_robust: Dict[Tuple[int, int], float]
    fault_plans: Tuple[FaultPlan, ...]

    @property
    def inflation(self) -> float:
        """Robust over nominal block time (>= 1 for any valid plan)."""
        if self.nominal_seconds <= 0:
            return 1.0
        return self.robust_seconds / self.nominal_seconds


def _quantile(values: Sequence[float], q: float) -> float:
    """The empirical ``q``-quantile (nearest-rank, upper)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def robust_tune_model(
    model: LLMConfig,
    batch_size: int,
    chips: int,
    hw: HardwareParams,
    spec: FaultSpec,
    ensemble: int = 16,
    quantile: float = 0.95,
    algorithm: str = "meshslice",
    optimize_dataflow: bool = True,
    mesh_candidates: Optional[Sequence[Mesh2D]] = None,
    min_mesh_dim: int = 2,
    max_slices: int = 64,
    abft: bool = False,
    sdc_rate: float = 0.0,
) -> RobustTuningResult:
    """Pick the mesh shape minimizing a tail quantile under faults.

    Per candidate shape, slice counts are tuned with the nominal
    analytical models (faults rescale every slice count's cost roughly
    alike, so the per-pass optima barely move), then the full block is
    *simulated* under each plan of a seeded fault ensemble and the
    shape with the smallest ``quantile`` of those block times wins.
    With a null ``spec`` every ensemble member equals the clean
    simulation, so the search degrades to picking the simulated-best
    shape. All fault sampling derives from ``spec.seed``: the same
    call returns the same result, bit for bit.

    Args:
        spec: Cluster-level fault description (see
            :class:`repro.faults.FaultSpec`).
        ensemble: Number of sampled fault plans.
        quantile: Tail quantile to minimize (nearest-rank; 0.95 = p95).
        algorithm: Distributed GeMM algorithm to simulate (the slice
            tuning always uses MeshSlice's shared analytical model, as
            the evaluation's fairness rule does).

    Raises:
        ValueError: if no candidate mesh supports the algorithm.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    from repro.algorithms import get_algorithm
    from repro.perf.pipeline import faulted_pass, simulated_pass

    tokens = model.tokens(batch_size)
    plans = plan_model(model, tokens, optimize_dataflow=optimize_dataflow)
    if mesh_candidates is not None:
        candidates = list(mesh_candidates)
    else:
        candidates = mesh_shapes(chips, min_dim=min_mesh_dim)
    if not candidates:
        raise ValueError(f"no candidate mesh shapes for {chips} chips")
    fault_plans = spec.ensemble(chips, hw, ensemble)
    alg = get_algorithm(algorithm)

    best_mesh: Optional[Mesh2D] = None
    best_tuned: List[TunedPass] = []
    best_robust = 0.0
    best_mean = 0.0
    per_mesh: Dict[Tuple[int, int], float] = {}
    for mesh in candidates:
        tuned, _estimate = tune_mesh(
            plans, mesh, hw, max_slices, abft=abft, sdc_rate=sdc_rate
        )
        configs = [t.config(mesh) for t in tuned]
        if any(alg.check_support(cfg) for cfg in configs):
            continue
        totals = [
            sum(faulted_pass(algorithm, cfg, hw, plan).makespan
                for cfg in configs)
            for plan in fault_plans
        ]
        robust = _quantile(totals, quantile)
        per_mesh[mesh.shape] = robust
        if best_mesh is None or robust < best_robust:
            best_mesh = mesh
            best_tuned = tuned
            best_robust = robust
            best_mean = sum(totals) / len(totals)
    if best_mesh is None:
        raise ValueError(
            f"no candidate mesh supports {algorithm!r} at {chips} chips"
        )
    nominal = sum(
        simulated_pass(algorithm, t.config(best_mesh), hw).makespan
        for t in best_tuned
    )
    reg = _metrics()
    reg.inc("tuner.robust_runs", labels={"model": model.name})
    reg.inc("tuner.meshes_searched", float(len(candidates)))
    reg.inc(
        "tuner.ensemble_simulations",
        float(len(fault_plans) * len(per_mesh)),
    )
    return RobustTuningResult(
        mesh=best_mesh,
        passes=tuple(best_tuned),
        quantile=quantile,
        robust_seconds=best_robust,
        mean_seconds=best_mean,
        nominal_seconds=nominal,
        per_mesh_robust=per_mesh,
        fault_plans=fault_plans,
    )
