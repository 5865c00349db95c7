"""Algorithm-based fault tolerance for the 2D GeMM functional plane.

Classic Huang-Abraham checksums adapted to MeshSlice's sharded, sliced
execution: every shard of ``A`` carries an appended checksum row (its
column sums) and every shard of ``B`` an appended checksum column (its
row sums). Both ride along the contraction dimension unchanged through
``slice_col``/``slice_row`` and the ring collectives, so each partial
block product — and the block it accumulates into — satisfies a local
linear invariant that detects, locates, and corrects silent data
corruption injected by :mod:`repro.faults.sdc`.

* :mod:`repro.abft.checksums` — encode/verify/correct one block;
* :mod:`repro.abft.gemm` — protected functional GeMMs
  (:func:`abft_gemm` over the meshslice/summa/collective algorithms)
  returning the corrected result plus an :class:`ABFTReport`.

The timed counterpart is ``GeMMConfig(abft=True, sdc_rate=...)``: the
program builders charge checksum encode/verify FLOPs, enlarged
collective payloads, and an expected-recompute epilogue so the
autotuner optimizes block shapes *under* ABFT overhead.
"""

from repro._lazy import lazy_exports

#: The whole package is numpy-backed; names import on first access
#: (PEP 562).
_LAZY_EXPORTS = {
    "ABFTReport": "repro.abft.gemm",
    "BlockVerdict": "repro.abft.checksums",
    "abft_collective_os": "repro.abft.gemm",
    "abft_gemm": "repro.abft.gemm",
    "abft_meshslice_os": "repro.abft.gemm",
    "abft_summa_os": "repro.abft.gemm",
    "augment_a": "repro.abft.checksums",
    "augment_b": "repro.abft.checksums",
    "augmented_product": "repro.abft.checksums",
    "residuals": "repro.abft.checksums",
    "strip": "repro.abft.checksums",
    "verify_block": "repro.abft.checksums",
}

__all__ = [
    "ABFTReport",
    "BlockVerdict",
    "abft_collective_os",
    "abft_gemm",
    "abft_meshslice_os",
    "abft_summa_os",
    "augment_a",
    "augment_b",
    "augmented_product",
    "residuals",
    "strip",
    "verify_block",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
