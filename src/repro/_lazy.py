"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists the names it re-exports from numpy-backed (or simply
heavy) submodules in a ``name -> module`` table and installs the hooks
returned by :func:`lazy_exports`. The first attribute access imports
the defining module and caches the value in the package namespace, so
``from repro.core import meshslice_os`` keeps working while
``import repro.core`` loads only the timing-plane modules. Submodules
resolve as attributes too (``repro.core.slicing``), as they did when
every ``__init__`` imported them eagerly.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``exports``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
