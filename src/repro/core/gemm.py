"""GeMM problem descriptions shared by all algorithm implementations."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


def local_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One chip's local partial-block matmul.

    Every functional algorithm routes its per-chip products through this
    helper so that :func:`repro.faults.sdc.sdc_injection` can model an
    MXU datapath upset corrupting the accumulate. Outside an injection
    context this is exactly ``a @ b``.
    """
    from repro.faults.sdc import corrupt_block

    return corrupt_block("gemm", a @ b)


@dataclasses.dataclass(frozen=True)
class GeMMShape:
    """The shape of one distributed GeMM problem ``C[M,N] = A[M,K] B[K,N]``.

    ``M``, ``N``, and ``K`` always refer to the *logical* product
    ``C = A B`` regardless of the dataflow used to compute it (LS and RS
    dataflows physically store a transposed operand, but the problem
    they solve is still an ``M x N x K`` product).

    Attributes:
        m: Rows of the output.
        n: Columns of the output.
        k: Contraction dimension.
        dtype_bytes: Bytes per element.
    """

    m: int
    n: int
    k: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) < 1:
            raise ValueError(f"GeMM dimensions must be positive, got {self}")
        if self.dtype_bytes < 1:
            raise ValueError("dtype_bytes must be positive")

    @property
    def flops(self) -> float:
        """Total floating-point operations (multiply-accumulate counted as 2)."""
        return 2.0 * self.m * self.n * self.k

    @property
    def a_bytes(self) -> float:
        """Size of the left input ``A`` (M x K)."""
        return float(self.m * self.k * self.dtype_bytes)

    @property
    def b_bytes(self) -> float:
        """Size of the right input ``B`` (K x N)."""
        return float(self.k * self.n * self.dtype_bytes)

    @property
    def c_bytes(self) -> float:
        """Size of the output ``C`` (M x N)."""
        return float(self.m * self.n * self.dtype_bytes)

    @property
    def total_bytes(self) -> float:
        return self.a_bytes + self.b_bytes + self.c_bytes

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.m, self.n, self.k)

    def transposed(self) -> "GeMMShape":
        """The shape of the transposed problem ``Cᵀ = Bᵀ Aᵀ``."""
        return GeMMShape(m=self.n, n=self.m, k=self.k, dtype_bytes=self.dtype_bytes)

    def __str__(self) -> str:
        return f"({self.m}x{self.n}x{self.k})"
