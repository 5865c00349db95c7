"""Metric exporters: JSON-lines, record collection, summary tables.

The documented JSONL schema (see ``docs/observability.md``): one JSON
object per line, serialized with sorted keys, each of the form ::

    {"type": <"counter"|"gauge"|"histogram"|"derived">,
     "name": <dotted series name>,
     "labels": {<str>: <str>, ...},
     ...}

with the value fields per type:

* ``counter`` / ``gauge`` / ``derived`` — ``"value"`` (number);
* ``histogram`` — ``"count"`` (int), ``"total"`` (number), and
  ``"buckets"`` mapping upper-bound reprs (``"+inf"`` for overflow) to
  observation counts.

Exports are deterministic: records are emitted sorted by
``(type, name, labels)`` and every mapping is key-sorted, so the same
workload produces byte-identical files across processes and hash
seeds (pinned by ``tests/test_obs_determinism.py``).

Every count lives in the registry (memo caches' ``cache.hits`` /
``cache.misses`` included), so a pooled run's export sums every
worker's counts; only the caches' hit/miss split depends on the pool.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.obs.derive import RunMetrics
from repro.obs.registry import registry

#: Record keys every schema-valid line must carry.
REQUIRED_KEYS = ("type", "name", "labels")

#: Allowed record types and the extra keys each may carry.
RECORD_TYPES: Dict[str, tuple] = {
    "counter": ("value",),
    "gauge": ("value",),
    "derived": ("value",),
    "histogram": ("count", "total", "buckets"),
}


def validate_record(record: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` matches the JSONL schema."""
    for key in REQUIRED_KEYS:
        if key not in record:
            raise ValueError(f"metric record missing {key!r}: {record!r}")
    rtype = record["type"]
    if rtype not in RECORD_TYPES:
        raise ValueError(f"unknown metric record type {rtype!r}")
    if not isinstance(record["name"], str) or not record["name"]:
        raise ValueError(f"metric record name must be a string: {record!r}")
    labels = record["labels"]
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        raise ValueError(f"metric labels must map str to str: {record!r}")
    allowed = set(REQUIRED_KEYS) | set(RECORD_TYPES[rtype])
    extra = set(record) - allowed
    if extra:
        raise ValueError(
            f"unexpected keys {sorted(extra)} on {rtype} record {record!r}"
        )
    if rtype == "histogram":
        if not isinstance(record.get("count"), int):
            raise ValueError(f"histogram record needs an int count: {record!r}")
        buckets = record.get("buckets", {})
        if not isinstance(buckets, dict) or not all(
            isinstance(k, str) and isinstance(v, int)
            for k, v in buckets.items()
        ):
            raise ValueError(
                f"histogram buckets must map str to int: {record!r}"
            )
    elif not isinstance(record.get("value"), (int, float)):
        raise ValueError(f"{rtype} record needs a numeric value: {record!r}")


def collect_records(
    run_metrics: Optional[Iterable[RunMetrics]] = None,
) -> List[Dict[str, object]]:
    """Everything observable right now, as sorted schema records.

    The global registry snapshot (memo-cache counters included) and any
    per-run derived metrics the caller wants included.
    """
    records = [rec.to_record() for rec in registry().snapshot()]
    for metrics in run_metrics or ():
        records.extend(metrics.to_records())
    records.sort(
        key=lambda r: (r["type"], r["name"], sorted(r["labels"].items()))
    )
    return records


def dumps_records(records: Iterable[Dict[str, object]]) -> str:
    """Serialize records as JSON lines (sorted keys, one per line)."""
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    )


def write_jsonl(records: Iterable[Dict[str, object]], path: str) -> None:
    """Write schema records to a JSONL file."""
    with open(path, "w") as handle:
        handle.write(dumps_records(records))


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a metrics JSONL file back, validating every record."""
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            validate_record(record)
            records.append(record)
    return records


def summary_table(records: Iterable[Dict[str, object]]) -> str:
    """A human-readable table of metric records.

    Counters/gauges/derived series print their value; histograms their
    count, total, and mean.
    """
    from repro.experiments.common import render_table

    rows = []
    for record in records:
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(record["labels"].items())
        )
        if record["type"] == "histogram":
            count = record.get("count", 0)
            total = record.get("total", 0.0)
            mean = total / count if count else 0.0
            value = f"n={count} total={total:.6g} mean={mean:.6g}"
        else:
            value = f"{record.get('value', 0.0):.6g}"
        rows.append((record["type"], record["name"], labels or "-", value))
    return render_table(["type", "name", "labels", "value"], rows)
