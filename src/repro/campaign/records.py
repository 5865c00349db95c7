"""The campaign record schema and its canonical line encoding.

One record is one grid point's terminal outcome: the point's content
key and encoded coordinate, its result row(s) or structured failure,
the metrics delta the point produced, and the code version that
produced it. Records deliberately contain **no wall-clock fields and
no attempt counts** — everything stored is a pure function of the
point — so a run completed cold, a run killed and resumed (any
``--jobs``), and a serial rerun all append byte-identical lines. The
nondeterministic residue (retry counts, skip counts, corrupt-line
counts, wall time) lives in the ``campaign.*`` metrics registry
series instead, which the record's own ``metrics`` field excludes.

Gauges are excluded from ``metrics`` wholesale: the registry's
``delta_since`` reports a gauge whenever it changed *or is new*, so a
resumed fresh process would see pre-existing gauge levels as new while
the uninterrupted run would not — counters and histograms subtract
cleanly and carry no such hazard. The two wall-clock histogram series
the tuning service emits are excluded by name for the same reason.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro import __version__
from repro.campaign.codec import encode_value
from repro.obs.registry import MetricRecord

__all__ = [
    "SCHEMA_VERSION",
    "WALL_CLOCK_SERIES",
    "encode_record",
    "make_record",
    "record_metrics",
    "validate_record",
]

#: Bump when the record shape changes; loads reject other versions.
SCHEMA_VERSION = 1

#: Registry series whose values are wall-clock measurements and must
#: never enter a stored record (they would break byte determinism).
WALL_CLOCK_SERIES = (
    "service.latency_ms",
    "service.queue.depth.sample",
)

_STATUSES = ("ok", "failed")


def record_metrics(
    delta: Iterable[MetricRecord],
) -> Tuple[Dict[str, Any], ...]:
    """The storable subset of a per-point registry delta.

    Counters and histograms only (deterministic, subtractable),
    excluding the campaign layer's own bookkeeping, the memo caches'
    ``cache.*`` lookup counts and the wall-clock service series. Order
    is the registry's sorted snapshot order, so the encoding is stable.
    """
    kept = []
    for rec in delta:
        if rec.type not in ("counter", "histogram"):
            continue
        if rec.name.startswith(("campaign.", "cache.")):
            continue
        if rec.name in WALL_CLOCK_SERIES:
            continue
        kept.append(rec.to_record())
    return tuple(kept)


def make_record(
    campaign: str,
    key: str,
    point: Any,
    status: str,
    result: Any = None,
    error: Optional[Tuple[str, ...]] = None,
    metrics: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Build one schema-valid record dict for :func:`encode_record`.

    ``error`` is ``(type, message)`` with an optional third element
    carrying the worker-side traceback string; the traceback lands in
    the record's ``error["traceback"]`` so a collected failure still
    says where it died (the original exception object never survives
    the process-pool boundary).
    """
    if status not in _STATUSES:
        raise ValueError(f"unknown record status {status!r}")
    encoded_error: Optional[Dict[str, str]] = None
    if error is not None:
        encoded_error = {"type": error[0], "message": error[1]}
        if len(error) > 2 and error[2] is not None:
            encoded_error["traceback"] = error[2]
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "campaign": campaign,
        "key": key,
        "point": encode_value(point),
        "status": status,
        "result": encode_value(result) if status == "ok" else None,
        "error": encoded_error,
        "metrics": list(metrics),
        "version": __version__,
    }
    validate_record(record)
    return record


def validate_record(record: Any) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``record`` is a schema-valid dict."""
    if not isinstance(record, dict):
        raise ValueError("record is not a dict")
    if record.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unknown schema {record.get('schema')!r}")
    for field, kind in (
        ("campaign", str),
        ("key", str),
        ("status", str),
        ("version", str),
        ("metrics", list),
    ):
        if not isinstance(record.get(field), kind):
            raise ValueError(f"field {field!r} missing or mistyped")
    if record["status"] not in _STATUSES:
        raise ValueError(f"unknown status {record['status']!r}")
    if "point" not in record or "result" not in record:
        raise ValueError("record lacks point/result fields")
    error = record.get("error")
    if error is not None and (
        not isinstance(error, dict)
        or not isinstance(error.get("type"), str)
        or not isinstance(error.get("message"), str)
        or not isinstance(error.get("traceback", ""), str)
    ):
        raise ValueError("malformed error field")
    if record["status"] == "failed" and error is None:
        raise ValueError("failed record lacks an error")
    return record


def encode_record(record: Dict[str, Any]) -> str:
    """The canonical JSONL line (newline-terminated) of one record."""
    validate_record(record)
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )
