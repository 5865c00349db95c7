"""``repro.obs``: the observability layer.

A lightweight metrics/profiling subsystem threaded through the whole
stack:

* :mod:`repro.obs.registry` — process-wide counters/gauges/histograms
  with labeled series, always collecting;
* :mod:`repro.obs.hooks` — the engine's queue-wait capture channel;
* :mod:`repro.obs.derive` — per-run derived metrics (utilization,
  overlap fraction, comm breakdown) computed from span lists;
* :mod:`repro.obs.export` — JSONL and summary-table exporters with a
  documented, byte-deterministic schema;
* :mod:`repro.obs.profile` — the ``meshslice profile`` workflow.

The eager imports here are stdlib-only (``registry`` and ``hooks``
must be importable from ``repro.sim.engine`` without cycles); the
heavier layers load lazily (PEP 562).
"""

from repro.obs.hooks import capture_waits, wait_sink
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
    "capture_waits",
    "collect_records",
    "derive_run_metrics",
    "merge_run_metrics",
    "profile_block",
    "read_jsonl",
    "registry",
    "summary_table",
    "validate_record",
    "wait_sink",
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
