"""Reproductions of the paper's evaluation (Section 5 + Section 7).

One module per figure/table; each publishes its grid as a
:class:`~repro.campaign.spec.CampaignSpec` named ``CAMPAIGN``:
``points()`` builds the grid, ``point`` computes one coordinate's
typed rows and ``render`` turns rows into a text table with paper
reference points, so ``CAMPAIGN.render(CAMPAIGN.run())`` is the report.
Nothing here is imported until it is used: :data:`EXPERIMENTS` imports
an experiment module when it is looked up, and the shared helpers of
:mod:`repro.experiments.common` load on first access (PEP 562).
"""

import importlib
from collections.abc import Mapping

from repro._lazy import lazy_exports


class _Registry(Mapping):
    """Experiment name -> module, imported on lookup."""

    def __init__(self, modules):
        self._modules = modules

    def __getitem__(self, name):
        return importlib.import_module(self._modules[name])

    def __iter__(self):
        return iter(self._modules)

    def __len__(self):
        return len(self._modules)


#: Experiment registry for the CLI: name -> module (must publish CAMPAIGN).
EXPERIMENTS = _Registry({
    "fig4": "repro.experiments.fig04_timelines",
    "fig9": "repro.experiments.fig09_weak_scaling",
    "fig10": "repro.experiments.fig10_comm_breakdown",
    "fig11": "repro.experiments.fig11_matrix_shapes",
    "fig12": "repro.experiments.fig12_strong_scaling",
    "fig13": "repro.experiments.fig13_mesh_shapes",
    "fig14": "repro.experiments.fig14_slice_counts",
    "fig15": "repro.experiments.fig15_comm_model_accuracy",
    "table2": "repro.experiments.table2_dataflow_opt",
    "table3": "repro.experiments.table3_real_hw",
    "ablation-2.5d": "repro.experiments.ablation_25d",
    "ablation-3d": "repro.experiments.ablation_3d",
    "ablation-elastic": "repro.experiments.ablation_elastic",
    "ablation-faults": "repro.experiments.ablation_faults",
    "ablation-inference": "repro.experiments.ablation_inference",
    "ablation-logical-mesh": "repro.experiments.ablation_logical_mesh",
    "ablation-recovery": "repro.experiments.ablation_recovery",
    "ablation-sdc": "repro.experiments.ablation_sdc",
    "ablation-unrolling": "repro.experiments.ablation_unrolling",
    "ablation-zoo": "repro.experiments.ablation_zoo",
})

#: The grid helpers shared by every experiment, imported on first access.
_LAZY_EXPORTS = {
    name: "repro.experiments.common"
    for name in (
        "ALL_ALGORITHMS",
        "CLUSTER_SIZES",
        "BlockRun",
        "GridPointError",
        "best_block_run",
        "candidate_meshes",
        "end_to_end_step_seconds",
        "grid_map",
        "pass_config",
        "render_table",
        "run_block",
        "tuned_slices",
        "weak_scaling_batch",
    )
}

__all__ = ["EXPERIMENTS", *_LAZY_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
