"""The MeshSlice algorithm: slicing, dataflows, and functional GeMM."""

from repro._lazy import lazy_exports
from repro.core.dataflow import (
    Dataflow,
    flowing_bytes,
    operand_shapes,
    sliced_dimension,
    sliced_extent,
)
from repro.core.gemm import GeMMShape, local_gemm

#: numpy-backed functional plane, imported on first access (PEP 562).
_LAZY_EXPORTS = {
    "meshslice_gemm": "repro.core.meshslice",
    "meshslice_ls": "repro.core.meshslice",
    "meshslice_os": "repro.core.meshslice",
    "meshslice_rs": "repro.core.meshslice",
    "set_slice_col": "repro.core.slicing",
    "set_slice_row": "repro.core.slicing",
    "slice_col": "repro.core.slicing",
    "slice_row": "repro.core.slicing",
    "unslice_col": "repro.core.slicing",
    "unslice_row": "repro.core.slicing",
    "valid_slice_counts": "repro.core.slicing",
}

__all__ = [
    "Dataflow",
    "GeMMShape",
    "flowing_bytes",
    "local_gemm",
    "meshslice_gemm",
    "meshslice_ls",
    "meshslice_os",
    "meshslice_rs",
    "operand_shapes",
    "set_slice_col",
    "set_slice_row",
    "slice_col",
    "slice_row",
    "sliced_dimension",
    "sliced_extent",
    "unslice_col",
    "unslice_row",
    "valid_slice_counts",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
