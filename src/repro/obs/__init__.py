"""``repro.obs``: the observability layer.

A lightweight metrics/profiling subsystem threaded through the whole
stack:

* :mod:`repro.obs.registry` — process-wide counters/gauges/histograms
  with labeled series, always collecting;
* :mod:`repro.obs.derive` — per-run derived metrics (utilization,
  overlap fraction, comm breakdown) computed from span lists, plus
  the per-kind summary of the queue waits the engine returns;
* :mod:`repro.obs.export` — JSONL and summary-table exporters with a
  documented, byte-deterministic schema;
* :mod:`repro.obs.profile` — the ``meshslice profile`` workflow.

The eager import here is stdlib-only (``registry`` is imported
throughout the stack, so it must load without cycles); the heavier
layers load lazily (PEP 562).
"""

from repro.obs.registry import (
    GLOBAL_REGISTRY,
    MetricRecord,
    MetricsRegistry,
    registry,
)

#: Lazily-loaded exports (PEP 562): name -> (module, attribute).
_LAZY_EXPORTS = {
    "ProfileReport": ("repro.obs.profile", "ProfileReport"),
    "RunMetrics": ("repro.obs.derive", "RunMetrics"),
    "WaitStats": ("repro.obs.derive", "WaitStats"),
    "collect_records": ("repro.obs.export", "collect_records"),
    "derive_run_metrics": ("repro.obs.derive", "derive_run_metrics"),
    "merge_run_metrics": ("repro.obs.derive", "merge_run_metrics"),
    "profile_block": ("repro.obs.profile", "profile_block"),
    "read_jsonl": ("repro.obs.export", "read_jsonl"),
    "summary_table": ("repro.obs.export", "summary_table"),
    "validate_record": ("repro.obs.export", "validate_record"),
    "write_jsonl": ("repro.obs.export", "write_jsonl"),
}

__all__ = [
    "GLOBAL_REGISTRY",
    "MetricRecord",
    "MetricsRegistry",
    "ProfileReport",
    "RunMetrics",
    "WaitStats",
    "collect_records",
    "derive_run_metrics",
    "merge_run_metrics",
    "profile_block",
    "read_jsonl",
    "registry",
    "summary_table",
    "validate_record",
    "write_jsonl",
]


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
