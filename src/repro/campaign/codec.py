"""Canonical deterministic encoding of grid points and result rows.

The campaign store persists two kinds of values: the *point* (the
grid coordinate an experiment maps over — models, hardware presets,
algorithm tuples, mesh shapes) and the *result* (the experiment's row
dataclasses). Both must serialize byte-deterministically — same value,
same bytes, regardless of ``PYTHONHASHSEED``, process, or ``--jobs``
— because the store's resume contract is a byte-for-byte diff and the
point's content hash is its identity.

The encoding is plain JSON with three reserved markers so tuples,
enums, and dataclasses survive a round trip::

    (1, 2)            -> {"__tuple__": [1, 2]}
    Dataflow.WS       -> {"__enum__": "repro...:Dataflow", "name": "WS"}
    SomeRow(a=1)      -> {"__dataclass__": "mod:SomeRow",
                          "fields": {"a": 1}}

Points only ever need the *encode* direction (their hash is their
identity; the live objects come from the campaign spec). Result rows
need both: :func:`decode_value` re-imports the named dataclass or enum
— and refuses anything that is not one — so query/report code gets the
experiment's own row types back.

Anything without a canonical form (functions, open handles, objects
that are not dataclasses) raises ``TypeError`` — campaign specs must
build points and rows from encodable pieces, never silently hash a
``repr`` that could embed a memory address.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
import sys
from typing import Any, Dict, List

__all__ = [
    "canonical_json",
    "decode_value",
    "encode_value",
    "point_key",
]

_TUPLE = "__tuple__"
_ENUM = "__enum__"
_DATACLASS = "__dataclass__"
_MARKERS = (_TUPLE, _ENUM, _DATACLASS)


def _qualref(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve(ref: str) -> Any:
    module_name, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def encode_value(value: Any) -> Any:
    """``value`` as JSON-able data with deterministic structure."""
    # numpy scalars first: np.float64 subclasses float and would
    # otherwise pass through un-coerced. A process that never imported
    # numpy holds no numpy scalar, so the codec does not import it.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        return encode_value(value.item())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, val in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot encode dict key {key!r}: keys must be str"
                )
            if key in _MARKERS:
                raise TypeError(
                    f"dict key {key!r} collides with a codec marker"
                )
            out[key] = encode_value(val)
        return out
    if isinstance(value, enum.Enum):
        return {_ENUM: _qualref(type(value)), "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {_DATACLASS: _qualref(type(value)), "fields": fields}
    raise TypeError(
        f"cannot canonically encode {type(value).__name__}: {value!r}"
    )


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Marker dicts resolve their named type by import and verify it
    really is an ``Enum`` / dataclass before instantiating — a store
    record can make this raise, never execute arbitrary constructors.
    """
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if isinstance(data, dict):
        if _TUPLE in data:
            return tuple(decode_value(v) for v in data[_TUPLE])
        if _ENUM in data:
            cls = _resolve(data[_ENUM])
            if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
                raise ValueError(f"{data[_ENUM]!r} is not an Enum")
            return cls[data["name"]]
        if _DATACLASS in data:
            cls = _resolve(data[_DATACLASS])
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                raise ValueError(f"{data[_DATACLASS]!r} is not a dataclass")
            fields = {
                key: decode_value(val)
                for key, val in data["fields"].items()
            }
            return cls(**fields)
        return {key: decode_value(val) for key, val in data.items()}
    return data


def canonical_json(value: Any) -> str:
    """The one canonical JSON text of ``value`` (sorted, no spaces)."""
    return json.dumps(
        encode_value(value), sort_keys=True, separators=(",", ":")
    )


def point_key(campaign: str, point: Any) -> str:
    """Content address of one grid point within one campaign.

    The campaign name is part of the hash so two campaigns whose point
    tuples happen to collide structurally still key separately.
    """
    text = canonical_json({"campaign": campaign, "point": point})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_points(points: List[Any]) -> List[Any]:
    """Encode a point list (convenience for specs and tests)."""
    return [encode_value(p) for p in points]
