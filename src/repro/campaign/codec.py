"""Canonical deterministic encoding of grid points, rows and plans.

The campaign store persists two kinds of values: the *point* (the
grid coordinate an experiment maps over — models, hardware presets,
algorithm tuples, mesh shapes) and the *result* (the experiment's row
dataclasses); the plan store (:mod:`repro.service.store`) persists
tuning requests and results. All must serialize byte-deterministically
— same value, same bytes, regardless of ``PYTHONHASHSEED``, process,
or ``--jobs`` — because the stores' resume contracts are byte-for-byte
diffs and a value's content hash (:func:`content_key`) is its identity.

The encoding is plain JSON with four reserved markers so tuples,
enums, dataclasses and non-str-keyed dicts survive a round trip::

    (1, 2)            -> {"__tuple__": [1, 2]}
    Dataflow.WS       -> {"__enum__": "repro...:Dataflow", "name": "WS"}
    SomeRow(a=1)      -> {"__dataclass__": "mod:SomeRow",
                          "fields": {"a": 1}}
    {(4, 8): 1.5}     -> {"__items__": [[{"__tuple__": [4, 8]}, 1.5]]}

``__items__`` pairs are sorted by the canonical JSON of each encoded
key; a dict whose keys are all str stays a plain JSON object.

Points only ever need the *encode* direction (their hash is their
identity; the live objects come from the campaign spec). Result rows
and plans need both: :func:`decode_value` re-imports the named
dataclass or enum — from the ``repro`` package only, checked before
any import — and refuses anything that is not one, raising
``ValueError``, so query/report code gets the experiment's own row
types back.

Anything without a canonical form (functions, open handles, objects
that are not dataclasses) raises ``TypeError`` — campaign specs must
build points and rows from encodable pieces, never silently hash a
``repr`` that could embed a memory address.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import json
import sys
from typing import Any, Dict, Tuple

__all__ = [
    "canonical_json",
    "content_key",
    "decode_value",
    "encode_value",
    "point_key",
]

_TUPLE = "__tuple__"
_ENUM = "__enum__"
_DATACLASS = "__dataclass__"
_ITEMS = "__items__"
_MARKERS = (_TUPLE, _ENUM, _DATACLASS, _ITEMS)
_JSON_SCALARS = frozenset((type(None), bool, int, float, str))


def _qualref(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def _resolve(ref: str) -> Any:
    # The package check runs before any import: a stored record can
    # never make decoding import an arbitrary module.
    module_name, _, qualname = ref.partition(":")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ValueError(f"type ref {ref!r} is outside the repro package")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"cannot resolve type ref {ref!r}: {exc}") from None
    return obj


def encode_value(value: Any) -> Any:
    """``value`` as JSON-able data with deterministic structure."""
    if type(value) in _JSON_SCALARS:
        return value
    # numpy scalars next: np.float64 subclasses float and would
    # otherwise pass through un-coerced. A process that never imported
    # numpy holds no numpy scalar, so the codec does not import it.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        return encode_value(value.item())
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            items = sorted(value.items(), key=lambda kv: canonical_json(kv[0]))
            return {
                _ITEMS: [[encode_value(k), encode_value(v)] for k, v in items]
            }
        out: Dict[str, Any] = {}
        for key, val in value.items():
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
            name: encode_value(getattr(value, name))
            for name in _field_names(type(value))
        }
        return {_DATACLASS: _qualref(type(value)), "fields": fields}
    raise TypeError(
        f"cannot canonically encode {type(value).__name__}: {value!r}"
    )


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Marker dicts resolve their named type by import — from the
    ``repro`` package only — and verify it really is an ``Enum`` /
    dataclass before instantiating: a store record can make this raise,
    never execute arbitrary imports or constructors.
    """
    if type(data) in _JSON_SCALARS:
        return data
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if isinstance(data, dict):
        if _TUPLE in data:
            return tuple(decode_value(v) for v in data[_TUPLE])
        if _ITEMS in data:
            return {
                decode_value(key): decode_value(val)
                for key, val in data[_ITEMS]
            }
        if _ENUM in data:
            cls = _resolve(str(data[_ENUM]))
            if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
                raise ValueError(f"{data[_ENUM]!r} is not an Enum")
            return cls[data["name"]]
        if _DATACLASS in data:
            cls = _resolve(str(data[_DATACLASS]))
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


def content_key(value: Any) -> str:
    """Content address of ``value``: sha256 hex of its canonical JSON."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def point_key(campaign: str, point: Any) -> str:
    """Content address of one grid point within one campaign.

    The campaign name is part of the hash so two campaigns whose point
    tuples happen to collide structurally still key separately.
    """
    return content_key({"campaign": campaign, "point": point})

