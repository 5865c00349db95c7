"""Common abstractions for distributed GeMM algorithm implementations.

Every algorithm provides two planes:

* a **functional** execution over numpy shards (bit-exact, used to
  verify correctness against local matmul), and
* a **timed** execution: it builds a :class:`repro.sim.Program` for one
  representative chip, which the simulator runs to produce the paper's
  performance metrics.

:func:`flow_ops` encodes which matrices flow in which torus direction
under each dataflow, and with which collective (AllGather for inputs,
ReduceScatter for outputs) — the information that determines an
algorithm's traffic cost (Section 2.3.1).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple, Type

from repro.core.dataflow import Dataflow, sliced_dimension
from repro.core.gemm import GeMMShape
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D
from repro.perf.cache import caching_enabled, named_cache
from repro.sim.chip import gemm_cost
from repro.sim.engine import LINK_H, LINK_V
from repro.sim.program import CostTable, Program, ProgramBuilder, shared_capacities

if TYPE_CHECKING:
    import numpy as np


@dataclasses.dataclass(frozen=True)
class GeMMConfig:
    """One distributed GeMM execution configuration.

    Attributes:
        shape: Logical problem ``C[M,N] = L[M,K] R[K,N]``.
        mesh: The 2D chip mesh (1D algorithms use ``mesh.size`` chips
            in a single ring).
        dataflow: Which matrix stays stationary.
        slices: Granularity knob: MeshSlice's slice count ``S``, and
            the unrolled iteration count for SUMMA and Wang
            (Section 4.2 sets those equal for fairness).
        transposed: Use the transposed dataflow variant (Section 3.2.1):
            all matrices transposed and the two flow directions flipped.
        abft: Protect the GeMM with ABFT checksums (:mod:`repro.abft`):
            the timed plane charges checksum encode/verify passes,
            enlarged collective payloads, and an expected-recompute
            epilogue driven by ``sdc_rate``.
        sdc_rate: Expected silent-data-corruption rate per protected
            operation, driving the ABFT recompute epilogue's
            probability (ignored when ``abft`` is false).
    """

    shape: GeMMShape
    mesh: Mesh2D
    dataflow: Dataflow = Dataflow.OS
    slices: int = 1
    transposed: bool = False
    abft: bool = False
    sdc_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ValueError(f"slices must be >= 1, got {self.slices}")
        if not 0.0 <= self.sdc_rate <= 1.0:
            raise ValueError(f"sdc_rate must be in [0, 1], got {self.sdc_rate}")

    def __hash__(self) -> int:
        # Configurations key every memoized cost-model and simulation
        # lookup; cache the (frozen) field hash instead of rehashing
        # shape and mesh on each call.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(
                (self.shape, self.mesh, self.dataflow, self.slices,
                 self.transposed, self.abft, self.sdc_rate)
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # The cached hash covers an enum (identity-hashed); never ship
        # it to another process.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def chips(self) -> int:
        return self.mesh.size

    @property
    def flops_per_chip(self) -> float:
        return self.shape.flops / self.chips


#: One flowing matrix in one torus direction: ("ag"|"rds", "a"|"b"|"c").
FlowOp = Tuple[str, str]

#: A cost table's slots: each declared name -> its slot.
Slots = Dict[Hashable, int]

_FLOW_TABLE = {
    Dataflow.OS: (("ag", "a"), ("ag", "b")),
    Dataflow.LS: (("rds", "c"), ("ag", "b")),
    Dataflow.RS: (("ag", "a"), ("rds", "c")),
}


def flow_ops(dataflow: Dataflow, transposed: bool = False) -> Tuple[FlowOp, FlowOp]:
    """The (inter-column, inter-row) communication of each dataflow.

    Returns a pair of ``(collective, matrix)`` tuples: the first for the
    inter-column direction (communication within row rings), the second
    for the inter-row direction (within column rings). Inputs flow via
    AllGather; outputs flow via ReduceScatter. The transposed variant
    flips the two directions.
    """
    col_op, row_op = _FLOW_TABLE[dataflow]
    if transposed:
        return row_op, col_op
    return col_op, row_op


def flow_directions(cfg: GeMMConfig) -> Tuple[Tuple[str, str, str, int], ...]:
    """``(collective, matrix, link, ring size)`` of both torus directions.

    The inter-column direction (row rings, :data:`LINK_H`) comes first,
    then the inter-row direction (column rings, :data:`LINK_V`); see
    :func:`flow_ops`.
    """
    (col_op, col_mat), (row_op, row_mat) = flow_ops(cfg.dataflow, cfg.transposed)
    return (
        (col_op, col_mat, LINK_H, cfg.mesh.cols),
        (row_op, row_mat, LINK_V, cfg.mesh.rows),
    )


def matrix_bytes(shape: GeMMShape, matrix: str) -> float:
    """Size of the logical matrix ``"a"``, ``"b"``, or ``"c"``."""
    if matrix == "a":
        return shape.a_bytes
    if matrix == "b":
        return shape.b_bytes
    if matrix == "c":
        return shape.c_bytes
    raise ValueError(f"unknown matrix {matrix!r}")


def abft_payload_factor(cfg: GeMMConfig, matrix: str) -> float:
    """Collective payload growth of a flowing matrix under ABFT.

    The checksum row appended to each local ``A`` shard grows its
    flowing rows from ``m_loc`` to ``m_loc + 1``; the checksum column
    on ``B`` grows ``n_loc`` likewise; a flowing output carries both.
    Returns ``1.0`` when ``cfg.abft`` is off.
    """
    if not cfg.abft:
        return 1.0
    m_loc, n_loc, _ = collective_local_dims(cfg)
    if matrix == "a":
        return 1.0 + 1.0 / m_loc
    if matrix == "b":
        return 1.0 + 1.0 / n_loc
    if matrix == "c":
        return (1.0 + 1.0 / m_loc) * (1.0 + 1.0 / n_loc)
    raise ValueError(f"unknown matrix {matrix!r}")


def abft_costs(table: CostTable, cfg: GeMMConfig) -> None:
    """Declare the ABFT records of a protected GeMM.

    Both operands' checksum encodes (one streaming pass per local
    shard), then the verify-and-recompute epilogue: one checksum pass
    re-sums the accumulated local output block against its carried
    row/column checksums (the data is read for the row sums and again
    for the column sums, hence the factor 2), and an expected-cost
    recompute of the full local block models the fallback for
    detected-uncorrectable corruption: its probability is the
    per-operation SDC rate times the number of protected operations,
    capped at 1.
    """
    chips = cfg.mesh.size
    for mat in ("a", "b"):
        elements = matrix_bytes(cfg.shape, mat) / (chips * cfg.shape.dtype_bytes)
        table.checksum(f"abft_encode_{mat}", elements)
    out_elements = float(cfg.shape.m) * cfg.shape.n / chips
    table.checksum("abft_verify_c", 2.0 * out_elements)
    probability = min(1.0, cfg.sdc_rate * abft_protected_ops(cfg))
    m, n, k = collective_local_dims(cfg)
    table.expected("abft_recompute", gemm_cost(m, n, k, table.hw), probability)


def abft_encode(builder: ProgramBuilder, slot: Slots) -> Dict[str, int]:
    """Emit both operands' checksum encodes: ``{matrix: activity id}``."""
    return {
        mat: builder.emit_compute(f"abft_encode_{mat}", slot[f"abft_encode_{mat}"])
        for mat in ("a", "b")
    }


def abft_epilogue(builder: ProgramBuilder, slot: Slots, deps: Sequence[int]) -> int:
    """Emit the ABFT verify-and-recompute epilogue after ``deps``."""
    verify = builder.emit_compute("abft_verify_c", slot["abft_verify_c"], deps)
    return builder.emit_compute("abft_recompute", slot["abft_recompute"], (verify,))


def abft_protected_ops(cfg: GeMMConfig) -> int:
    """Operations exposed to silent corruption in one protected GeMM.

    Per slice (or unrolled iteration): one local partial GeMM plus one
    collective per torus direction whose ring is non-trivial. Scales
    the expected-recompute probability of the ABFT verify epilogue.
    """
    collectives = sum(1 for ring in (cfg.mesh.cols, cfg.mesh.rows) if ring > 1)
    return cfg.slices * (1 + collectives)


def traffic_seconds(cfg: GeMMConfig, hw: HardwareParams) -> Tuple[float, float]:
    """Pure transfer-time lower bound per direction (Section 2.3.1).

    Returns ``(inter_column, inter_row)`` times: for a matrix of size
    ``sizeof(M)`` flowing among ``P_dir`` chips of a ring,
    ``(P_dir - 1) * sizeof(M) / (P_r * P_c) / bw``.
    """
    (col_op, row_op) = flow_ops(cfg.dataflow, cfg.transposed)
    chips = cfg.mesh.size
    bw = hw.ring_bandwidth
    col_time = (
        (cfg.mesh.cols - 1) * matrix_bytes(cfg.shape, col_op[1]) / chips / bw
    )
    row_time = (
        (cfg.mesh.rows - 1) * matrix_bytes(cfg.shape, row_op[1]) / chips / bw
    )
    return col_time, row_time


#: Skeleton store: ``skeleton_key`` -> the :class:`repro.sim.program.Skeleton`
#: its first build recorded.
_SKELETONS = named_cache("program_skeleton")


class DistributedGeMM(abc.ABC):
    """A distributed GeMM algorithm (timed plane plus optional functional).

    Subclasses set ``name`` and split their timed plane in two:
    :meth:`costs` declares the per-shape cost records and :meth:`emit`
    emits the DAG, charging each activity to a record by slot.
    :meth:`build_program` is :meth:`assemble` (Cannon checks its
    support first). :meth:`check_support` reports configuration
    constraints (e.g. Cannon's square-mesh requirement).
    """

    name: str = "abstract"

    @abc.abstractmethod
    def build_program(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        """Build the representative-chip activity DAG for ``cfg``."""

    @abc.abstractmethod
    def costs(self, cfg: GeMMConfig, hw: HardwareParams) -> CostTable:
        """The records ``build_program(cfg, hw)`` charges, in slot order.

        Configurations with equal :meth:`skeleton_key` must declare the
        same names in the same order; only the records' values may
        differ.
        """

    @abc.abstractmethod
    def emit(self, builder: ProgramBuilder, cfg: GeMMConfig, slot: Slots) -> None:
        """Emit ``cfg``'s DAG, charging the slots ``costs`` declared
        (``slot`` maps each declared name to its slot)."""

    def skeleton_key(self, cfg: GeMMConfig, hw: HardwareParams) -> Hashable:
        """Everything the structure of ``build_program(cfg, hw)`` reads.

        Two configurations with equal keys must build programs with
        identical aids, labels, kinds, exclusive resources, dependencies
        and cost slots; only durations, shared demands and cost metadata
        may differ. The default covers builders whose structure the
        problem shape does not touch. Algorithms that branch on the
        shape extend the key with what they branch on.
        """
        return (
            self.name, cfg.mesh, cfg.dataflow, cfg.slices, cfg.transposed,
            cfg.abft, hw,
        )

    def assemble(self, cfg: GeMMConfig, hw: HardwareParams) -> Program:
        """``cfg``'s program: its :meth:`costs` scattered over a skeleton.

        The skeleton is the one stored under :meth:`skeleton_key`; the
        first build of a key runs :meth:`emit` once and stores it. With
        caching off (``REPRO_NO_CACHE``) every build runs :meth:`emit`
        and the program carries no skeleton.
        """
        table = self.costs(cfg, hw)
        meta = {"algorithm": self.name, "config": cfg}
        if not caching_enabled():
            return self._emitted(cfg, table).build(**meta)
        key = self.skeleton_key(cfg, hw)
        store = _SKELETONS.store
        skeleton = store.get(key)
        if skeleton is None:
            _SKELETONS.misses.value += 1
            skeleton = store[key] = self._emitted(cfg, table).skeleton()
        else:
            _SKELETONS.hits.value += 1
        return Program.from_columns(
            skeleton.columns(table), shared_capacities(hw), meta, skeleton
        )

    def _emitted(self, cfg: GeMMConfig, table: CostTable) -> ProgramBuilder:
        builder = ProgramBuilder(table.hw, table)
        self.emit(builder, cfg, table.slots)
        return builder

    def check_support(self, cfg: GeMMConfig) -> Optional[str]:
        """Why ``cfg`` is unsupported, or ``None`` if it is supported."""
        return None

    def supports(self, cfg: GeMMConfig) -> bool:
        return self.check_support(cfg) is None

    def functional(
        self, a: np.ndarray, b: np.ndarray, cfg: GeMMConfig
    ) -> np.ndarray:
        """Bit-exact numpy execution (optional; see each algorithm)."""
        raise NotImplementedError(
            f"{self.name} does not provide a functional implementation"
        )

    def canonical_config(self, cfg: GeMMConfig) -> GeMMConfig:
        """The canonical representative of ``cfg``'s equivalence class.

        Contract: ``build_program(canonical_config(cfg), hw)`` emits a
        program whose activities and shared capacities are
        **bit-identical** to ``build_program(cfg, hw)`` for every
        ``hw`` — the simulation caches key on the canonical form, so
        any weaker equivalence (same makespan but different labels,
        say) would leak one configuration's trace to another.

        The default is the identity. Algorithms whose builders ignore
        or clamp knobs override it: Cannon's iteration count is fixed
        by the mesh side, and the SendRecv-pipeline algorithms clamp
        the slice count to their decomposed ring length.
        """
        return cfg

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: Dict[str, Type[DistributedGeMM]] = {}


def register(cls: Type[DistributedGeMM]) -> Type[DistributedGeMM]:
    """Class decorator registering an algorithm under its ``name``."""
    if cls.name in _REGISTRY:
        raise ValueError(f"algorithm {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str) -> DistributedGeMM:
    """Instantiate a registered algorithm by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}")


def algorithm_names() -> Tuple[str, ...]:
    """Names of all registered algorithms."""
    return tuple(sorted(_REGISTRY))


def effective_problem(cfg: GeMMConfig) -> Tuple[GeMMShape, Dataflow]:
    """The problem actually executed after applying transposition.

    The transposed variant of a dataflow (Section 3.2.1) transposes all
    matrices and flips the flow directions. Transposition maps OS to
    itself and exchanges LS and RS (transposing ``C = A Bᵀ`` gives
    ``Cᵀ = B Aᵀ``, a right-stationary form). The effective shape is the
    transposed logical shape.
    """
    if not cfg.transposed:
        return cfg.shape, cfg.dataflow
    swapped = {
        Dataflow.OS: Dataflow.OS,
        Dataflow.LS: Dataflow.RS,
        Dataflow.RS: Dataflow.LS,
    }
    return cfg.shape.transposed(), swapped[cfg.dataflow]


def collective_local_dims(cfg: GeMMConfig) -> Tuple[int, int, int]:
    """Local GeMM kernel dimensions of the Collective algorithm.

    After the full AllGathers, each chip multiplies (per dataflow, with
    ``(m, n, k)`` the effective problem dims and ``P_r x P_c`` the
    mesh): OS ``(m/P_r, n/P_c, k)``, LS ``(m/P_r, n, k/P_c)``,
    RS ``(m, n/P_c, k/P_r)``.
    """
    shape, dataflow = effective_problem(cfg)
    rows, cols = cfg.mesh.rows, cfg.mesh.cols
    m, n, k = shape.m, shape.n, shape.k
    if dataflow is Dataflow.OS:
        return (_div(m, rows), _div(n, cols), k)
    if dataflow is Dataflow.LS:
        return (_div(m, rows), n, _div(k, cols))
    if dataflow is Dataflow.RS:
        return (m, _div(n, cols), _div(k, rows))
    raise ValueError(f"unknown dataflow {dataflow!r}")


def sliced_local_dims(cfg: GeMMConfig, slices: int) -> Tuple[int, int, int]:
    """Local kernel dimensions when the sliced dimension is split S ways.

    MeshSlice, SUMMA (with unrolled iteration count S), and Wang all
    partition the same logical dimension — the one the gathered inputs
    or scattered outputs span (K for OS, N for LS, M for RS).
    """
    shape, dataflow = effective_problem(cfg)
    m, n, k = collective_local_dims(cfg)
    dim = sliced_dimension(dataflow)
    if dim == "k":
        return (m, n, _div(k, slices))
    if dim == "n":
        return (m, _div(n, slices), k)
    return (_div(m, slices), n, k)


def group_bounds(steps: int, groups: int) -> List[int]:
    """Where each of ``groups`` merged groups of a ``steps``-step
    pipeline starts, plus the end: loop unrolling (Section 4.2) merges
    the SendRecv pipelines' steps into ``groups`` larger GeMM groups."""
    return [g * steps // groups for g in range(groups + 1)]


def group_sizes(bounds: Sequence[int]) -> Tuple[int, ...]:
    """The distinct non-empty group sizes of ``bounds``, in order."""
    return tuple(dict.fromkeys(
        end - start for start, end in zip(bounds, bounds[1:]) if end > start
    ))


def _div(extent: int, parts: int) -> int:
    """Integer division, rounding up so degenerate splits stay positive."""
    return max(1, -(-extent // parts))
