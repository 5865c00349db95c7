"""Fast-path machinery for the simulation/experiment pipeline.

Two layers:

* :mod:`repro.perf.cache` — named, content-keyed memoization counting
  hits/misses in the metrics registry, and the ``REPRO_NO_CACHE``
  environment kill switch.
* :mod:`repro.perf.pipeline` — cached program builds, whole simulated
  pass results keyed ``(algorithm, GeMMConfig, HardwareParams)``, and
  certified makespan lower bounds for mesh-search pruning.

The pipeline names are exported lazily (PEP 562): low-level modules
like ``repro.sim.chip`` import ``repro.perf.cache``, which triggers
this package, and an eager pipeline import would cycle back through
``repro.algorithms`` into ``repro.sim``.
"""

from repro.perf.cache import (
    KILL_SWITCH_ENV,
    CacheStats,
    cache_stats,
    caching_enabled,
    clear_caches,
    memoize,
)

_PIPELINE_EXPORTS = (
    "built_program",
    "degraded_retune_model",
    "faulted_pass",
    "pass_compute_floor",
    "pass_lower_bound",
    "simulated_pass",
)

__all__ = [
    "KILL_SWITCH_ENV",
    "CacheStats",
    "cache_stats",
    "caching_enabled",
    "clear_caches",
    "memoize",
    *_PIPELINE_EXPORTS,
]


def __getattr__(name):
    if name in _PIPELINE_EXPORTS:
        from repro.perf import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
