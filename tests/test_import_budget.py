"""Import budget: the timing plane and the ``meshslice`` commands load
no numpy and only the experiment modules they run.

numpy backs the functional plane alone (sharded GeMMs, ABFT, SDC
injection); the package ``__init__``s export those
names lazily (PEP 562) and the experiment registry imports a module on
lookup. Each check runs in a fresh interpreter, because the test
process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Every name ``dir()`` listed on each package when its ``__init__``
#: still imported everything eagerly (dunders left out). Each must keep
#: resolving, so a typo in a lazy table fails here, not in a user's
#: import.
PINNED_NAMES = {
    "repro": """
        ABFTReport CampaignRunner CampaignSpec CampaignStore
        CheckpointModel Dataflow FaultPlan FaultSpec GPU_LOGICAL_MESH
        GeMMShape HardFault HardwareParams LifetimeResult LifetimeSpec
        Mesh2D MeshExecutor MetricsRegistry NULL_PLAN NULL_SDC_PLAN
        PlanStore ProfileReport ReshardPlan RetryPolicy Ring1D
        RunMetrics SDCPlan SimFailure SimResult TPUV4 TPUV4_CLOUD_4X4
        TableElasticPlanner Trace TuneRequest TunedElasticPlanner
        TunerService _LAZY_EXPORTS abft_gemm algorithm_names chip_down
        comm core faults get_algorithm get_preset hw link_down mesh
        mesh_shapes meshslice_gemm meshslice_ls meshslice_os
        meshslice_rs migration_seconds obs profile_block retune_degraded
        sdc_injection simulate simulate_lifetime slice_col slice_row
        valid_slice_counts
    """.split(),
    "repro.abft": """
        ABFTReport BlockVerdict abft_collective_os abft_gemm
        abft_meshslice_os abft_summa_os augment_a augment_b
        augmented_product checksums gemm residuals strip verify_block
    """.split(),
    "repro.comm": """
        CommCost CommCostModel OneSidedCostModel ZERO_COST ag_col ag_row
        bcast_col bcast_row cost onesided ops rds_col rds_row reduce_col
        reduce_row ring_allgather ring_hops ring_reducescatter shift_col
        shift_row
    """.split(),
    "repro.core": """
        Dataflow GeMMShape dataflow flowing_bytes gemm local_gemm
        meshslice meshslice_gemm meshslice_ls meshslice_os meshslice_rs
        operand_shapes set_slice_col set_slice_row slice_col slice_row
        sliced_dimension sliced_extent slicing unslice_col unslice_row
        valid_slice_counts
    """.split(),
    "repro.experiments": """
        ALL_ALGORITHMS BlockRun CLUSTER_SIZES EXPERIMENTS GridPointError
        ablation_25d ablation_3d ablation_elastic ablation_faults
        ablation_inference ablation_logical_mesh ablation_recovery
        ablation_sdc ablation_unrolling ablation_zoo best_block_run
        candidate_meshes common end_to_end_step_seconds fig04_timelines
        fig09_weak_scaling fig10_comm_breakdown fig11_matrix_shapes
        fig12_strong_scaling fig13_mesh_shapes fig14_slice_counts
        fig15_comm_model_accuracy grid_map pass_config render_table
        run_block table2_dataflow_opt table3_real_hw tuned_slices
        weak_scaling_batch
    """.split(),
    "repro.faults": """
        DEFAULT_RETRY_TIMEOUT FaultPlan FaultSpec HardFault NULL_PLAN
        NULL_SDC_PLAN SDCEvent SDCPlan SDC_OPS chip_down earliest hard
        link_down plan sdc sdc_injection spec
    """.split(),
    "repro.mesh": """
        ChipRuntime Coord DeadlockError LAYOUTS Mesh2D MeshExecutor
        Ring1D ShardedMatrix curve_length divisors executor factor_pairs
        gather_matrix hilbert_order layout_names mesh_shapes
        morton_order shard_cols shard_matrix shard_rows shardable
        sharding square_mesh topology zeros_like_sharded
    """.split(),
    "repro.models": """
        ConvLayer FCLayer GPT3_175B InferenceWorkload LLAMA2_70B
        LLMConfig MEGATRON_NLG_530B MemoryEstimate MoEConfig PALM_540B
        PASSES block_fc_flops config conv conv2d_via_gemm
        distinct_gemm_shapes expert_ffn_gemms fc_layers get_model im2col
        inference inference_gemms is_memory_bound layers
        max_feasible_batch memory model_names moe nonfc
        nonfc_block_seconds nonfc_model_seconds training_memory zoo
    """.split(),
}

#: The ``meshslice`` commands whose cost is mostly start-up (plus one
#: simulating ``profile``), and the experiment modules each loads
#: (``list`` loads every one).
COMMANDS = (
    (["list"], None),
    (["fig4"], ["common", "fig04_timelines"]),
    (["fig15"], ["common", "fig15_comm_model_accuracy"]),
    (["table3"], ["common", "table3_real_hw"]),
    (["ablation-zoo"], ["ablation_zoo", "common"]),
    (["tune", "gpt3-175b", "--chips", "64"], ["common"]),
    (["profile", "gpt3-175b", "--chips", "16", "--batch", "8"], ["common"]),
)

#: Prints what a snippet left imported, as the last line of stdout.
_REPORT = """
import json, sys
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "experiments": sorted(
        name.rpartition(".")[2]
        for name in sys.modules
        if name.startswith("repro.experiments.")
    ),
    "result": globals().get("result"),
}))
"""


def _loaded(code):
    """Run ``code`` in a fresh interpreter; what it left imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_JOBS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _main(argv):
    """A snippet running ``meshslice <argv>`` with stdout swallowed."""
    return (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = main({argv!r})\n"
    )


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_no_numpy_and_no_experiment(module):
    loaded = _loaded(f"import {module}\n")
    assert not loaded["numpy"]
    assert loaded["experiments"] == []


@pytest.mark.parametrize(
    "argv, experiments", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS]
)
def test_cli_command_loads_no_numpy(argv, experiments):
    loaded = _loaded(_main(argv))
    assert loaded["result"] == 0
    assert not loaded["numpy"]
    if experiments is not None:
        assert loaded["experiments"] == experiments


def test_functional_plane_through_lazy_names():
    loaded = _loaded(
        "import sys\n"
        "import repro\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = rng.random((64, 96)), rng.random((96, 128))\n"
        "c = repro.meshslice_os(a, b, repro.Mesh2D(4, 2), slices=4)\n"
        "result = bool(np.allclose(c, a @ b))\n"
    )
    assert loaded["result"] is True


@pytest.mark.parametrize("package", sorted(PINNED_NAMES))
def test_pinned_names_resolve(package):
    names = PINNED_NAMES[package]
    loaded = _loaded(
        f"import {package} as package\n"
        f"result = [n for n in {names!r} if not hasattr(package, n)]\n"
    )
    assert loaded["result"] == []
