"""Figure 9: weak-scaling FLOP utilization of the FC layers.

Reproduces the paper's headline experiment: the FC layers of GPT-3 and
Megatron-NLG trained with seven distributed GeMM algorithms on clusters
of 16..256 TPUs, batch size set to half the chip count (the
Megatron-NLG weak-scaling rule) and sequence length 2048. Every
algorithm runs at its own optimal mesh shape; SUMMA and Wang reuse
MeshSlice's autotuned slice count as their unrolled iteration count.

Also computes the paper's headline end-to-end numbers: including the
non-FC layers, MeshSlice trains GPT-3 and Megatron-NLG 12.0% and 23.4%
faster than Wang at 256 chips.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.autotuner.dataflow import plan_model
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import (
    ALL_ALGORITHMS,
    CLUSTER_SIZES,
    best_block_run,
    end_to_end_step_seconds,
    render_table,
    weak_scaling_batch,
)
from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.zoo import GPT3_175B, MEGATRON_NLG_530B


@dataclasses.dataclass(frozen=True)
class WeakScalingRow:
    """One (model, cluster size, algorithm) data point."""

    model: str
    chips: int
    algorithm: str
    mesh: Optional[str]
    utilization: Optional[float]
    fc_block_ms: Optional[float]
    end_to_end_s: Optional[float]


def points(
    models: Sequence[LLMConfig] = (GPT3_175B, MEGATRON_NLG_530B),
    sizes: Sequence[int] = CLUSTER_SIZES,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
    hw: HardwareParams = TPUV4,
) -> List[tuple]:
    """The independent (model, cluster size) grid points of Figure 9."""
    return [
        (model, chips, tuple(algorithms), hw)
        for model in models
        for chips in sizes
    ]


def point(coords) -> List[WeakScalingRow]:
    """All Figure 9 rows of one (model, chips) grid point.

    The Phase-1 plans are derived once here and shared by all seven
    algorithms' mesh searches.
    """
    model, chips, algorithms, hw = coords
    batch = weak_scaling_batch(chips)
    plans = plan_model(model, model.tokens(batch), optimize_dataflow=True)
    rows: List[WeakScalingRow] = []
    for algorithm in algorithms:
        block = best_block_run(
            algorithm, model, batch, chips, hw, plans=plans
        )
        if block is None:
            rows.append(
                WeakScalingRow(model.name, chips, algorithm,
                               None, None, None, None)
            )
            continue
        rows.append(
            WeakScalingRow(
                model=model.name,
                chips=chips,
                algorithm=algorithm,
                mesh=str(block.mesh),
                utilization=block.utilization(hw),
                fc_block_ms=block.seconds * 1e3,
                end_to_end_s=end_to_end_step_seconds(
                    model, batch, chips, hw, block.seconds
                ),
            )
        )
    return rows


def speedup_over(
    rows: Sequence[WeakScalingRow],
    model: str,
    chips: int,
    baseline: str = "wang",
    subject: str = "meshslice",
) -> Tuple[float, float]:
    """(FC speedup, end-to-end speedup) of ``subject`` over ``baseline``."""
    by_alg: Dict[str, WeakScalingRow] = {
        r.algorithm: r for r in rows if r.model == model and r.chips == chips
    }
    subj, base = by_alg[subject], by_alg[baseline]
    if subj.fc_block_ms is None or base.fc_block_ms is None:
        raise ValueError("missing data for speedup computation")
    if subj.end_to_end_s is None or base.end_to_end_s is None:
        raise ValueError(
            f"missing end_to_end_s for {subject!r} vs {baseline!r} "
            f"({model} @ {chips} chips)"
        )
    fc = base.fc_block_ms / subj.fc_block_ms - 1.0
    e2e = base.end_to_end_s / subj.end_to_end_s - 1.0
    return fc, e2e


def render(rows: Sequence[WeakScalingRow]) -> str:
    """The Figure 9 table plus headline speedups, from rows alone."""
    table = render_table(
        ["model", "chips", "algorithm", "mesh", "FLOP util", "FC block (ms)"],
        [
            (r.model, r.chips, r.algorithm, r.mesh, r.utilization, r.fc_block_ms)
            for r in rows
        ],
    )
    lines = [table, ""]
    top = max((r.chips for r in rows), default=0)
    for model in (GPT3_175B, MEGATRON_NLG_530B):
        try:
            fc, e2e = speedup_over(rows, model.name, top)
        except (KeyError, ValueError):
            # Partial campaign store: the headline pair is not in yet.
            continue
        lines.append(
            f"{model.name} @ {top} chips: MeshSlice over Wang: "
            f"FC {fc * 100:+.1f}% (paper: +13.8% / +26.0%), "
            f"end-to-end {e2e * 100:+.1f}% (paper: +12.0% / +23.4%)"
        )
    return "\n".join(lines)


CAMPAIGN = CampaignSpec(
    name="fig9",
    points=points,
    point=point,
    render=render,
    flatten=True,
)
