"""On-disk content-addressed store of tuned plans.

The serving layer's durable tier: every completed tuning search is
written as one JSON record under the sha256 content address of its
canonical :class:`~repro.service.request.TuneRequest`
(:meth:`~repro.service.request.TuneRequest.cache_key`), layered *under*
the in-memory result cache.

Layout::

    <root>/<key[:2]>/<key>.json

A record is the shared codec's (:mod:`repro.campaign.codec`) canonical
JSON of ``{"schema", "key", "request", "result"}``: the canonical
request and the result stored whole, except a robust result's
``fault_plans``, which loading re-samples from the request's spec.

Records are written atomically (temp file + ``os.replace``) and loaded
corruption-tolerantly: unreadable bytes, malformed JSON, schema
mismatches, type refs that do not resolve, results of the wrong type,
and records whose embedded request no longer hashes to their filename
are all treated as cache *misses* (counted under
``service.store.corrupt``), never as errors — a half-written or
bit-rotted record can cost a redundant search but can never poison a
serving process.

Byte determinism is a contract: serializing the same canonical request
and result always produces identical bytes (sorted keys, no
timestamps, no environment), so two runs — or two concurrent workers —
that tune the same canonical config write the *same* record, and the
byte-determinism suite can diff stores across runs and ``--jobs``
settings.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Iterator, Optional

from repro.autotuner.search import RobustTuningResult, TuningResult
from repro.campaign.codec import canonical_json, decode_value
from repro.obs.registry import registry as _metrics
from repro.service.request import TuneRequest

__all__ = [
    "PlanStore",
    "RECORD_SCHEMA",
    "encode_record",
]

#: Version of the plan-store record layout; bump on incompatible change
#: so records of older layouts read as misses, never as misreads.
RECORD_SCHEMA = 3


class PlanStore:
    """Content-addressed persistence for tuned plans.

    Thread-safe by construction: every mutation is a single atomic
    ``os.replace`` of an immutable record, concurrent writers of the
    same key write identical bytes, and readers only ever observe a
    complete record or none.

    ``max_records`` / ``max_bytes`` bound the store: when a save pushes
    it past either limit, the least-recently-used records (by file
    mtime; loads refresh it) are deleted until the store fits again,
    counted under ``service.store.evicted``. The just-written record is
    never evicted, even when it alone exceeds ``max_bytes``. Unbounded
    by default.
    """

    def __init__(
        self,
        root: str,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = str(root)
        self.max_records = max_records
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)

    # ---------------------------------------------------------- addressing

    def path_for(self, key: str) -> str:
        """Record path of one content key (two-level fanout)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------ get/put

    def load(self, request: TuneRequest) -> Optional[object]:
        """The stored result of ``request``'s canonical form, if any."""
        key = request.cache_key()
        result = self._read(key)
        if result is not None and (
            self.max_records is not None or self.max_bytes is not None
        ):
            try:
                os.utime(self.path_for(key))
            except OSError:
                pass
        return result

    def save(self, request: TuneRequest, result: object) -> str:
        """Persist one completed search; returns the record path.

        Identical canonical requests always serialize to identical
        bytes, so concurrent saves of one key are benign (last atomic
        replace wins with the same content).
        """
        canonical = request.canonical()
        key = canonical.cache_key()
        payload = encode_record(key, canonical, result)
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _metrics().inc("service.store.writes")
        self._evict(protect=path)
        return path

    def _evict(self, protect: str) -> None:
        """Delete LRU records until the store is within its bounds."""
        if self.max_records is None and self.max_bytes is None:
            return
        entries = []
        for path in self._record_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        count = len(entries)
        total = sum(size for _mtime, _path, size in entries)
        # Oldest first; path breaks mtime ties deterministically. The
        # protected (just-written) record is exempt, so a single
        # oversized record cannot empty the store chasing max_bytes.
        entries.sort()
        for _mtime, path, size in entries:
            over_records = (
                self.max_records is not None and count > self.max_records
            )
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not over_records and not over_bytes:
                return
            if path == protect:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            count -= 1
            total -= size
            _metrics().inc("service.store.evicted")
            try:
                os.rmdir(os.path.dirname(path))
            except OSError:
                pass  # shard directory still holds other records

    def _read(self, key: str) -> Optional[object]:
        path = self.path_for(key)
        try:
            with open(path, "r") as handle:
                raw = handle.read()
        except OSError:
            return None
        result = self._decode(key, raw)
        if result is None:
            _metrics().inc("service.store.corrupt")
        return result

    def _decode(self, key: str, raw: str) -> Optional[object]:
        """Decode one record; ``None`` for anything not fully valid."""
        try:
            record = json.loads(raw)
            if (
                not isinstance(record, dict)
                or record.get("schema") != RECORD_SCHEMA
                or record.get("key") != key
            ):
                return None
            request = decode_value(record["request"])
            if (
                not isinstance(request, TuneRequest)
                or request.cache_key() != key
            ):
                # The record's content no longer hashes to its address
                # (bit rot, or a hand-edited file): a miss, not a hit
                # for the wrong query.
                return None
            result = decode_value(record["result"])
            if type(result) is not _result_type(request.mode):
                return None
            if isinstance(result, RobustTuningResult):
                plans = request.spec.ensemble(
                    request.chips, request.hw, request.ensemble
                )
                result = dataclasses.replace(result, fault_plans=plans)
        except (AttributeError, KeyError, TypeError, ValueError):
            # AttributeError: a hand-edited field of the wrong type
            # fails the request's own validation that way.
            return None
        return result

    # ----------------------------------------------------------- scanning

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    def _record_paths(self) -> Iterator[str]:
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith("."):
                    yield os.path.join(shard_dir, name)


# ------------------------------------------------------------ the record


def encode_record(key: str, request: TuneRequest, result: object) -> str:
    """The record bytes of one completed search (canonical request)."""
    if isinstance(result, RobustTuningResult):
        result = dataclasses.replace(result, fault_plans=())
    return canonical_json({
        "schema": RECORD_SCHEMA, "key": key,
        "request": request, "result": result,
    }) + "\n"


def _result_type(mode: str) -> type:
    """The result class a request of ``mode`` resolves to."""
    if mode == "degraded":
        from repro.recovery.degraded import DegradedRetune

        return DegradedRetune
    return RobustTuningResult if mode == "robust" else TuningResult
