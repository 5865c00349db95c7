"""Content-keyed memoization for the simulation/experiment fast path.

Design-space exploration re-evaluates the same pure functions with the
same frozen-dataclass inputs thousands of times per sweep: the
autotuner's ``best_slice_count`` is called with identical
``(GeMMConfig, HardwareParams, max_slices)`` keys once per algorithm
per mesh candidate (one entry per configuration, not one per candidate
``S``), ``plan_model`` once per algorithm per grid point, and the
simulator re-executes identical per-pass programs across mesh
candidates. Because every key type in the pipeline is a frozen
dataclass (``GeMMShape``, ``Mesh2D``, ``GeMMConfig``,
``HardwareParams``, ``LLMConfig``, ``LayerPlan``), exact content keys
are cheap: hashing a config is a handful of integer hashes.

This module provides the shared memoization machinery:

* :func:`memoize` — decorator turning a pure function into a cached
  one. Each cache is registered under a name so tests and benchmarks
  can inspect hit/miss counters.
* ``REPRO_NO_CACHE=1`` — environment kill switch, honored *per call*,
  so a single process can flip caching on and off (the equivalence and
  regression tests rely on this).
* :func:`cache_stats` / :func:`clear_caches` — introspection and reset.

Caches are unbounded: one full evaluation sweep creates a few thousand
entries of small frozen objects, far below any practical memory limit.
The caches are plain dicts, which makes them fork-friendly: worker
processes of the parallel grid runner inherit warm parent caches
through copy-on-write.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

#: Environment variable that disables every cache when set to a truthy
#: value ("1", "true", "yes", "on" — case-insensitive).
KILL_SWITCH_ENV = "REPRO_NO_CACHE"

_TRUTHY = ("1", "true", "yes", "on")

_F = TypeVar("_F", bound=Callable[..., Any])

#: All caches created via :func:`memoize`, by registration name.
_REGISTRY: Dict[str, "_MemoCache"] = {}


# The kill switch is honored per call, which puts one environment
# lookup on every cached-function invocation — tens of thousands per
# sweep. ``os.environ.get`` re-encodes the key string each time, so on
# CPython/POSIX we read the underlying bytes dict directly (kept in
# sync by ``os.environ.__setitem__``, which is what monkeypatch.setenv
# and CLI code use).
if os.name == "posix" and isinstance(
    getattr(os.environ, "_data", None), dict
):
    _ENV_DATA = os.environ._data
    _KILL_KEY = os.fsencode(KILL_SWITCH_ENV)

    def _kill_switch_value() -> str:
        raw = _ENV_DATA.get(_KILL_KEY)
        return "" if raw is None else os.fsdecode(raw)

else:  # pragma: no cover - non-CPython / non-POSIX fallback

    def _kill_switch_value() -> str:
        return os.environ.get(KILL_SWITCH_ENV, "")


def caching_enabled() -> bool:
    """Whether memoization is active (the kill switch is not set)."""
    value = _kill_switch_value()
    return not value or value.strip().lower() not in _TRUTHY


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters of one named cache."""

    name: str
    hits: int
    misses: int
    entries: int

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        calls = self.calls
        return self.hits / calls if calls else 0.0


class _MemoCache:
    """One named cache: a plain dict plus hit/miss counters."""

    __slots__ = ("name", "store", "hits", "misses")

    def __init__(self, name: str):
        self.name = name
        self.store: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self.store.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            hits=self.hits,
            misses=self.misses,
            entries=len(self.store),
        )


def memoize(name: str) -> Callable[[_F], _F]:
    """Cache a pure function on its (hashable) positional arguments.

    The decorated function must be called with positional arguments
    only; public wrappers with keyword defaults should normalize into a
    fully positional call (see ``best_slice_count`` for the idiom).
    This keeps keys canonical — ``f(a, b)`` and ``f(a, b=b)`` would
    otherwise occupy two cache slots.

    Registering two caches under one name raises, which catches
    accidental name collisions between modules.
    """
    if name in _REGISTRY:
        raise ValueError(f"cache {name!r} already registered")
    cache = _MemoCache(name)
    _REGISTRY[name] = cache

    def decorator(fn: _F) -> _F:
        store = cache.store

        def wrapper(*args: Any) -> Any:
            kill = _kill_switch_value()
            if kill and kill.strip().lower() in _TRUTHY:
                return fn(*args)
            try:
                value = store[args]
            except KeyError:
                cache.misses += 1
                value = store[args] = fn(*args)
                return value
            except TypeError:
                # Unhashable argument (caller-constructed list, etc.):
                # fall through to the uncached function.
                return fn(*args)
            cache.hits += 1
            return value

        wrapper.cache = cache  # type: ignore[attr-defined]
        wrapper.cache_clear = cache.clear  # type: ignore[attr-defined]
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper  # type: ignore[return-value]

    return decorator


def named_cache(name: str) -> _MemoCache:
    """Register and return a cache for manual get/put use.

    For call patterns :func:`memoize` cannot express — e.g. the
    content-addressed simulation store, whose key (a program
    fingerprint) is derived *inside* the cached computation rather
    than from the call arguments. The returned object exposes
    ``store`` (a plain dict) plus ``hits``/``misses`` counters; it
    participates in :func:`cache_stats` and :func:`clear_caches` like
    any decorated cache. Callers must honor :func:`caching_enabled`
    themselves.
    """
    if name in _REGISTRY:
        raise ValueError(f"cache {name!r} already registered")
    cache = _MemoCache(name)
    _REGISTRY[name] = cache
    return cache


def cache_stats(name: Optional[str] = None) -> Dict[str, CacheStats]:
    """Counters of one cache, or of every registered cache."""
    if name is not None:
        return {name: _REGISTRY[name].stats()}
    return {key: cache.stats() for key, cache in _REGISTRY.items()}


def clear_caches(names: Optional[Tuple[str, ...]] = None) -> None:
    """Empty caches and reset their counters (all by default)."""
    targets = _REGISTRY.values() if names is None else (
        _REGISTRY[n] for n in names
    )
    for cache in targets:
        cache.clear()


def registered_caches() -> Tuple[str, ...]:
    """Names of every cache created so far (import-order dependent)."""
    return tuple(_REGISTRY)
