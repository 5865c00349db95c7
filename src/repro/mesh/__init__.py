"""Topologies (2D torus, 1D ring) and matrix sharding."""

from repro._lazy import lazy_exports
from repro.mesh.topology import (
    LAYOUTS,
    Coord,
    Mesh2D,
    Ring1D,
    curve_length,
    divisors,
    factor_pairs,
    hilbert_order,
    layout_names,
    mesh_shapes,
    morton_order,
    square_mesh,
)

#: numpy-backed functional plane, imported on first access (PEP 562).
_LAZY_EXPORTS = {
    "ChipRuntime": "repro.mesh.executor",
    "DeadlockError": "repro.mesh.executor",
    "MeshExecutor": "repro.mesh.executor",
    "ShardedMatrix": "repro.mesh.sharding",
    "gather_matrix": "repro.mesh.sharding",
    "shard_cols": "repro.mesh.sharding",
    "shard_matrix": "repro.mesh.sharding",
    "shard_rows": "repro.mesh.sharding",
    "shardable": "repro.mesh.sharding",
    "zeros_like_sharded": "repro.mesh.sharding",
}

__all__ = [
    "ChipRuntime",
    "Coord",
    "DeadlockError",
    "LAYOUTS",
    "MeshExecutor",
    "Mesh2D",
    "Ring1D",
    "ShardedMatrix",
    "curve_length",
    "divisors",
    "factor_pairs",
    "gather_matrix",
    "hilbert_order",
    "layout_names",
    "mesh_shapes",
    "morton_order",
    "shard_cols",
    "shard_matrix",
    "shard_rows",
    "shardable",
    "square_mesh",
    "zeros_like_sharded",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
