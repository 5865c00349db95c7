"""Load generator: replay a zipf-distributed tuning query mix.

Production tuner traffic is heavy-tailed — a handful of (model, chips)
configurations dominate while a long tail of variants trickles in.
The load generator models that as a zipf draw over a catalog of
distinct requests, replays the mix through a :class:`TunerService`,
and reports served throughput against the cold ``TuneRequest.run()``
baseline (every cache cleared per query). The serve/replay CLI and the
``BENCH_service.json`` benchmark both run through this module, so the
numbers they report are the same measurement.

Everything is seeded: the same ``(catalog, queries, seed)`` triple
produces the same query sequence, which is what lets the benchmark's
throughput floor and the CI smoke leg assert against live runs.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Sequence, Union

from repro.hw.params import HardwareParams
from repro.hw.presets import TPUV4
from repro.models.config import LLMConfig
from repro.models.zoo import get_model
from repro.perf.cache import clear_caches
from repro.service.request import TuneRequest, execute
from repro.service.server import TunerService
from repro.service.store import PlanStore

__all__ = ["LoadReport", "default_catalog", "run_load", "zipf_mix"]


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run.

    Attributes:
        queries: Queries replayed through the service.
        unique: Distinct canonical requests in the mix.
        elapsed_s: Wall-clock seconds serving the whole mix.
        throughput_qps: Served queries per second.
        cold_seconds_per_query: Mean cold ``execute`` latency over the
            distinct requests, all caches cleared per measurement.
        speedup: Served throughput over the cold baseline's
            (``cold_seconds_per_query * throughput_qps``).
        stats: The service's closing :meth:`TunerService.stats`
            snapshot (hit rates, latency tails).
    """

    queries: int
    unique: int
    elapsed_s: float
    throughput_qps: float
    cold_seconds_per_query: float
    speedup: float
    stats: Dict[str, float]


def default_catalog(
    models: Sequence[Union[str, LLMConfig]] = ("gpt3-175b", "llama2-70b"),
    chip_counts: Sequence[int] = (16, 32, 64),
    batches: Sequence[int] = (8,),
    hw: HardwareParams = TPUV4,
) -> List[TuneRequest]:
    """A catalog of distinct nominal tuning requests.

    The cross product (model x chips x batch) mirrors a deployment
    sweep.
    """
    catalog: List[TuneRequest] = []
    for model in models:
        if isinstance(model, str):
            model = get_model(model)
        for chips in chip_counts:
            for batch in batches:
                catalog.append(
                    TuneRequest(
                        model=model, batch=batch, chips=chips, hw=hw
                    )
                )
    return catalog


def zipf_mix(
    catalog: Sequence[TuneRequest],
    queries: int,
    seed: int = 0,
    exponent: float = 1.1,
) -> List[TuneRequest]:
    """Draw a seeded zipf-weighted query sequence from the catalog.

    Catalog position is popularity rank: entry ``i`` is drawn with
    weight ``1 / (i + 1) ** exponent``.
    """
    if not catalog:
        raise ValueError("catalog is empty")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(catalog))]
    rng = random.Random(seed)
    return rng.choices(list(catalog), weights=weights, k=queries)


def cold_baseline(requests: Sequence[TuneRequest]) -> float:
    """Mean cold ``execute`` seconds over the given requests.

    Every measurement starts from nothing: all ``repro.perf`` caches
    are cleared first, so this is the per-query cost the service's
    store/memory/dedup tiers exist to amortize.
    """
    if not requests:
        return 0.0
    total = 0.0
    for request in requests:
        clear_caches()
        started = time.perf_counter()
        execute(request)
        total += time.perf_counter() - started
    clear_caches()
    return total / len(requests)


def run_load(
    mix: Sequence[TuneRequest],
    store: Union[PlanStore, str, None],
    workers: int = 4,
    measure_cold: bool = True,
) -> LoadReport:
    """Replay a query mix through a fresh service and report throughput.

    The cold baseline is measured first (over the distinct requests in
    the mix), then every cache is cleared so the service run earns its
    own hits.
    """
    unique: Dict[str, TuneRequest] = {}
    for request in mix:
        unique.setdefault(request.cache_key(), request)
    cold = cold_baseline(list(unique.values())) if measure_cold else 0.0

    with TunerService(store, workers=workers) as svc:
        started = time.perf_counter()
        svc.serve_many(list(mix))
        elapsed = time.perf_counter() - started
        stats = svc.stats()

    throughput = len(mix) / elapsed if elapsed > 0 else 0.0
    speedup = cold * throughput if cold > 0 else 0.0
    return LoadReport(
        queries=len(mix),
        unique=len(unique),
        elapsed_s=elapsed,
        throughput_qps=throughput,
        cold_seconds_per_query=cold,
        speedup=speedup,
        stats=stats,
    )
