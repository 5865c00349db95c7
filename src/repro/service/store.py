"""On-disk content-addressed store of tuned plans.

The serving layer's durable tier: every completed tuning search is
written as one JSON record under the sha256 content address of its
canonical :class:`~repro.service.request.TuneRequest`
(:meth:`~repro.service.request.TuneRequest.cache_key`), layered *under*
the in-memory result cache.

Layout::

    <root>/<key[:2]>/<key>.json

Records are written atomically (temp file + ``os.replace``) and loaded
corruption-tolerantly: unreadable bytes, malformed JSON, schema
mismatches, and records whose embedded request no longer hashes to
their filename are all treated as cache *misses* (counted under
``service.store.corrupt``), never as errors — a half-written or
bit-rotted record can cost a redundant search but can never poison a
serving process.

Byte determinism is a contract: serializing the same canonical request
and result always produces identical bytes (sorted keys, no
timestamps, no environment), so two runs — or two concurrent workers —
that tune the same canonical config write the *same* record, and the
byte-determinism suite can diff stores across runs and ``--jobs``
settings. A tuning result's ``per_mesh_seconds`` map is reporting
only and is not stored: a loaded result carries an empty map.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.autotuner.costmodel import CostEstimate
from repro.autotuner.dataflow import PassPlan
from repro.autotuner.search import (
    RobustTuningResult,
    TunedPass,
    TuningResult,
)
from repro.core.dataflow import Dataflow
from repro.core.gemm import GeMMShape
from repro.mesh.topology import Mesh2D
from repro.obs.registry import registry as _metrics
from repro.service.request import SCHEMA_VERSION, TuneRequest

__all__ = [
    "PlanStore",
    "decode_result",
    "encode_record",
    "encode_result",
]


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
                or record.get("schema") != SCHEMA_VERSION
                or record.get("key") != key
            ):
                return None
            request = TuneRequest.from_dict(record["request"])
            if request.cache_key() != key:
                # The record's content no longer hashes to its address
                # (bit rot, or a hand-edited file): a miss, not a hit
                # for the wrong query.
                return None
            result = decode_result(record["result"], request)
        except (KeyError, TypeError, ValueError):
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


# ------------------------------------------------------------- the codec


def encode_record(key: str, request: TuneRequest, result: object) -> str:
    """The canonical record bytes of one completed search."""
    record = {
        "schema": SCHEMA_VERSION,
        "key": key,
        "request": request.to_dict(),
        "result": encode_result(result),
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def encode_result(result: object) -> Dict[str, Any]:
    """Serialize any of the three mode result objects."""
    if isinstance(result, TuningResult):
        return {"kind": "tune", **_encode_tuning(result)}
    if isinstance(result, RobustTuningResult):
        return {
            "kind": "robust",
            "mesh": list(result.mesh.shape),
            "passes": [_encode_pass(p) for p in result.passes],
            "quantile": result.quantile,
            "robust_seconds": result.robust_seconds,
            "mean_seconds": result.mean_seconds,
            "nominal_seconds": result.nominal_seconds,
            "per_mesh_robust": _encode_per_mesh(result.per_mesh_robust),
        }
    from repro.recovery.degraded import DegradedRetune

    if isinstance(result, DegradedRetune):
        return {
            "kind": "degraded",
            "original": list(result.original.shape),
            "dead": list(result.dead),
            "dropped": result.dropped,
            "result": _encode_tuning(result.result),
        }
    raise TypeError(f"cannot encode result type {type(result).__name__}")


def decode_result(data: Dict[str, Any], request: TuneRequest) -> object:
    """Inverse of :func:`encode_result`.

    ``request`` (canonical) supplies the context a record omits
    because it is reproducible: robust mode's fault-plan ensemble is
    re-sampled from the spec's seed rather than stored.
    """
    kind = data["kind"]
    if kind == "tune":
        return _decode_tuning(data)
    if kind == "robust":
        fault_plans = request.spec.ensemble(
            request.chips, request.hw, request.ensemble
        )
        return RobustTuningResult(
            mesh=Mesh2D(*data["mesh"]),
            passes=tuple(_decode_pass(p) for p in data["passes"]),
            quantile=data["quantile"],
            robust_seconds=data["robust_seconds"],
            mean_seconds=data["mean_seconds"],
            nominal_seconds=data["nominal_seconds"],
            per_mesh_robust=_decode_per_mesh(data["per_mesh_robust"]),
            fault_plans=fault_plans,
        )
    if kind == "degraded":
        from repro.recovery.degraded import DegradedRetune

        return DegradedRetune(
            original=Mesh2D(*data["original"]),
            dead=tuple(data["dead"]),
            dropped=data["dropped"],
            result=_decode_tuning(data["result"]),
        )
    raise ValueError(f"unknown result kind {kind!r}")


def _encode_tuning(result: TuningResult) -> Dict[str, Any]:
    # per_mesh_seconds is reporting only and stays out of the record.
    return {
        "mesh": list(result.mesh.shape),
        "passes": [_encode_pass(p) for p in result.passes],
        "block_seconds": result.block_seconds,
    }


def _decode_tuning(data: Dict[str, Any]) -> TuningResult:
    return TuningResult(
        mesh=Mesh2D(*data["mesh"]),
        passes=tuple(_decode_pass(p) for p in data["passes"]),
        block_seconds=data["block_seconds"],
        per_mesh_seconds={},
    )


def _encode_pass(tuned: TunedPass) -> Dict[str, Any]:
    shape = tuned.plan.shape
    estimate = tuned.estimate
    return {
        "layer": tuned.layer_name,
        "pass": tuned.plan.pass_name,
        "shape": [shape.m, shape.n, shape.k, shape.dtype_bytes],
        "dataflow": tuned.plan.dataflow.name,
        "transposed": tuned.plan.transposed,
        "slices": tuned.slices,
        "estimate": [
            estimate.prologue,
            estimate.steady,
            estimate.epilogue,
            estimate.slices,
            estimate.flops_per_chip,
        ],
        "abft": tuned.abft,
        "sdc_rate": tuned.sdc_rate,
    }


def _decode_pass(data: Dict[str, Any]) -> TunedPass:
    m, n, k, dtype_bytes = data["shape"]
    prologue, steady, epilogue, slices, flops = data["estimate"]
    return TunedPass(
        layer_name=data["layer"],
        plan=PassPlan(
            pass_name=data["pass"],
            shape=GeMMShape(m=m, n=n, k=k, dtype_bytes=dtype_bytes),
            dataflow=Dataflow[data["dataflow"]],
            transposed=data["transposed"],
        ),
        slices=data["slices"],
        estimate=CostEstimate(
            prologue=prologue,
            steady=steady,
            epilogue=epilogue,
            slices=slices,
            flops_per_chip=flops,
        ),
        abft=data["abft"],
        sdc_rate=data["sdc_rate"],
    )


def _encode_per_mesh(
    per_mesh: Dict[Tuple[int, int], float]
) -> List[List[Any]]:
    return [
        [rows, cols, seconds]
        for (rows, cols), seconds in sorted(per_mesh.items())
    ]


def _decode_per_mesh(data: List[List[Any]]) -> Dict[Tuple[int, int], float]:
    return {(rows, cols): seconds for rows, cols, seconds in data}
