"""One-sided (RDMA-style) communication: get/put primitives and costs.

The ring collectives in :mod:`repro.comm.ops` are *two-sided*: every
transfer is matched by a receiver and every ring step pays a
synchronization. One-sided sliced GeMM (Brock & Golin, "Slicing Is All
You Need", PAPERS.md) instead has each chip *get* exactly the operand
windows it needs from their owners' memory — no per-step rendezvous,
no global schedule — and close each epoch with a single fence. This
module provides both planes of that primitive:

* a **functional** plane over per-chip numpy shards (windowed ``get``,
  ``put``, ``accumulate`` and a get-based ``gather_get``), with the
  same eager shape/dtype validation contract as :mod:`repro.comm.ops`
  (errors name the offending rank), and
* an analytical :class:`OneSidedCostModel` next to
  :class:`repro.comm.cost.CommCostModel`: gets and puts pay a cheap
  descriptor-post launch and pure wire time with **zero per-step
  sync**; all synchronization is concentrated in the epoch-closing
  :meth:`~OneSidedCostModel.fence`.

SDC hooks mirror the collectives: every payload that crossed the wire
passes through :func:`repro.faults.sdc.corrupt_block` under the
``onesided_get`` / ``onesided_put`` / ``onesided_acc`` hook names, so
:class:`~repro.faults.sdc.SDCPlan` injection covers one-sided traffic
too. ABFT checksums, however, do **not** survive one-sided transfers:
a windowed get reads an arbitrary sub-range of a shard, which slices
through the checksum rows/columns appended at shard granularity — the
algorithms built on this module reject ``abft=True`` configurations
with a structured ``check_support`` reason (see ``docs/algorithms.md``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

from repro.comm.cost import CommCost, ZERO_COST
from repro.hw.params import HardwareParams
from repro.mesh.topology import Coord, Mesh2D

if TYPE_CHECKING:
    import numpy as np

    from repro.comm.ops import Shards

__all__ = [
    "OneSidedCostModel",
    "accumulate",
    "gather_get",
    "get",
    "put",
    "ring_hops",
]


def ring_hops(ring_size: int) -> int:
    """Total min-wrap hop count of gets from every other ring member.

    ``sum(min(d, P - d) for d in 1..P-1)`` — the wire volume multiplier
    of a get epoch that fetches one shard from each peer of a ring.
    """
    if ring_size < 1:
        raise ValueError(f"ring_size must be >= 1, got {ring_size}")
    return sum(min(d, ring_size - d) for d in range(1, ring_size))


class OneSidedCostModel:
    """Closed-form costs of one-sided get/put communication.

    Args:
        hw: Hardware parameters providing link bandwidth and the
            measured ``t_sync`` / ``t_launch`` constants.

    A one-sided operation posts a transfer descriptor to the NIC
    instead of launching a host-coordinated collective, so its launch
    cost is a fraction (:data:`LAUNCH_FRACTION`) of ``t_launch`` and it
    pays **no** per-step synchronization — the defining difference from
    the ring formula ``t_launch + (P-1) * (t_sync + shard/bw)``. The
    synchronization deferred by the gets/puts is paid once per epoch in
    :meth:`fence` (a log-depth tree barrier over the participants).
    """

    #: Descriptor-post cost of one get/put relative to a collective
    #: launch: no rendezvous with remote software, just a NIC doorbell.
    LAUNCH_FRACTION = 0.25

    def __init__(self, hw: HardwareParams):
        self.hw = hw
        self._t_post = hw.t_launch * self.LAUNCH_FRACTION
        self._t_sync = hw.t_sync
        self._bw = hw.ring_bandwidth

    #: Flyweight pool, mirroring ``CommCostModel._instances``.
    _instances: "dict" = {}

    @classmethod
    def for_hw(cls, hw: HardwareParams) -> "OneSidedCostModel":
        """The shared cost model of ``hw`` (do not mutate)."""
        model = cls._instances.get(hw)
        if model is None:
            model = cls._instances[hw] = cls(hw)
        return model

    def get(self, message_bytes: float, hops: int = 1) -> CommCost:
        """One one-sided read of ``message_bytes`` over ``hops`` links.

        The remote chip is not involved (its NIC serves the read), so
        the only latency terms are the descriptor post and wire time;
        HBM traffic is one read at the source and one write at the
        reader.
        """
        return self._transfer(message_bytes, hops, hbm_factor=2.0)

    def put(self, message_bytes: float, hops: int = 1) -> CommCost:
        """One one-sided write; same cost structure as :meth:`get`."""
        return self._transfer(message_bytes, hops, hbm_factor=2.0)

    def accumulate(self, message_bytes: float, hops: int = 1) -> CommCost:
        """A one-sided fetch-add write.

        The target's NIC performs a read-modify-write, so the remote
        side pays one extra HBM read per byte compared to :meth:`put`.
        """
        return self._transfer(message_bytes, hops, hbm_factor=3.0)

    def epoch(self, ring_size: int, shard_bytes: float) -> CommCost:
        """Gets of one ``shard_bytes`` shard from each other ring member.

        The one-sided replacement of a ring AllGather: ``P - 1``
        descriptor posts, wire time for every shard over its min-wrap
        route, and **zero** synchronization (the caller fences once per
        epoch). On its own link direction the transfers serialize, which
        is what charging the summed wire time models.
        """
        self._check(ring_size, shard_bytes)
        if ring_size == 1:
            return ZERO_COST
        return self._epoch(ring_size, shard_bytes, hbm_factor=2.0)

    def accumulate_epoch(self, ring_size: int, shard_bytes: float) -> CommCost:
        """Accumulating puts of one shard to each other ring member.

        The one-sided replacement of a ring ReduceScatter: each peer's
        chunk is put-accumulated into its owner's window. Remote
        read-modify-write adds one HBM read per byte over :meth:`epoch`.
        """
        self._check(ring_size, shard_bytes)
        if ring_size == 1:
            return ZERO_COST
        return self._epoch(ring_size, shard_bytes, hbm_factor=3.0)

    def fence(self, participants: int) -> CommCost:
        """Epoch-closing quiet-and-barrier over ``participants`` chips.

        All the synchronization the gets/puts skipped, paid once: a
        log-depth dissemination barrier of ``ceil(log2(P))`` rounds,
        each costing one ``t_sync``.
        """
        if participants < 1:
            raise ValueError(
                f"participants must be >= 1, got {participants}"
            )
        if participants == 1:
            return ZERO_COST
        rounds = math.ceil(math.log2(participants))
        return CommCost(
            launch=self._t_post,
            transfer=0.0,
            sync=rounds * self._t_sync,
            hbm_bytes=0.0,
            syncs=rounds,
            wire_bytes=0.0,
        )

    def panel(
        self, pieces: int, piece_bytes: float, mean_hops: float = 1.0
    ) -> CommCost:
        """A distributed panel fetched with ``pieces`` gets.

        Used by the SFC GeMM: a tile's operand panel lives sharded over
        ``pieces`` owner chips at an average torus distance of
        ``mean_hops``; the reader posts one get per piece.
        """
        if pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {pieces}")
        if piece_bytes < 0:
            raise ValueError(
                f"piece_bytes must be non-negative, got {piece_bytes}"
            )
        if mean_hops < 0:
            raise ValueError(f"mean_hops must be non-negative, got {mean_hops}")
        total = pieces * piece_bytes
        return CommCost(
            launch=pieces * self._t_post,
            transfer=total * mean_hops / self._bw,
            sync=0.0,
            hbm_bytes=2.0 * total,
            syncs=0,
            wire_bytes=total * mean_hops,
        )

    def mean_ring_hops(self, ring_size: int) -> float:
        """Average min-wrap distance to the other members of a ring."""
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if ring_size == 1:
            return 0.0
        return ring_hops(ring_size) / (ring_size - 1)

    def _transfer(
        self, message_bytes: float, hops: int, hbm_factor: float
    ) -> CommCost:
        if message_bytes < 0:
            raise ValueError("message_bytes must be non-negative")
        if hops < 0:
            raise ValueError("hops must be non-negative")
        if hops == 0 or message_bytes == 0:
            return ZERO_COST
        return CommCost(
            launch=self._t_post,
            transfer=hops * message_bytes / self._bw,
            sync=0.0,
            hbm_bytes=hbm_factor * message_bytes,
            syncs=0,
            wire_bytes=hops * message_bytes,
        )

    def _epoch(
        self, ring_size: int, shard_bytes: float, hbm_factor: float
    ) -> CommCost:
        peers = ring_size - 1
        hops = ring_hops(ring_size)
        return CommCost(
            launch=peers * self._t_post,
            transfer=hops * shard_bytes / self._bw,
            sync=0.0,
            hbm_bytes=hbm_factor * peers * shard_bytes,
            syncs=0,
            wire_bytes=hops * shard_bytes,
        )

    @staticmethod
    def _check(ring_size: int, shard_bytes: float) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if shard_bytes < 0:
            raise ValueError(
                f"shard_bytes must be non-negative, got {shard_bytes}"
            )


# --------------------------------------------------------------- functional

Window = Optional[Tuple[int, int]]


def get(
    shards: Shards,
    mesh: Mesh2D,
    source: Coord,
    rows: Window = None,
    cols: Window = None,
) -> np.ndarray:
    """One-sided read of a window of ``source``'s shard.

    ``rows``/``cols`` are half-open ``(start, stop)`` ranges into the
    shard (``None`` reads the full extent). Returns a fresh copy — the
    reader owns the bytes it pulled; the source shard is never aliased
    or mutated. The payload passes the ``onesided_get`` SDC hook.
    """
    from repro.faults.sdc import corrupt_block

    shard = _source_shard(shards, mesh, source, "onesided get")
    r = _check_window(rows, shard.shape[0], "rows", source, shard)
    c = _check_window(cols, shard.shape[1], "cols", source, shard)
    window = shard[r[0]:r[1], c[0]:c[1]].copy()
    return corrupt_block("onesided_get", window)


def put(
    shards: Shards,
    mesh: Mesh2D,
    target: Coord,
    payload: np.ndarray,
    row: int = 0,
    col: int = 0,
) -> Shards:
    """One-sided write of ``payload`` into ``target``'s shard.

    Returns a new shard dict with the target entry replaced
    (copy-on-write: the input dict and arrays are never mutated,
    mirroring the collectives' contract). The payload passes the
    ``onesided_put`` SDC hook before landing.
    """
    from repro.faults.sdc import corrupt_block

    shard = _check_payload(shards, mesh, target, payload, row, col, "onesided_put")
    landed = corrupt_block("onesided_put", payload)
    out = dict(shards)
    updated = shard.copy()
    updated[row:row + payload.shape[0], col:col + payload.shape[1]] = landed
    out[target] = updated
    return out


def accumulate(
    shards: Shards,
    mesh: Mesh2D,
    target: Coord,
    payload: np.ndarray,
    row: int = 0,
    col: int = 0,
) -> Shards:
    """One-sided fetch-add of ``payload`` into ``target``'s shard.

    The one-sided reduce primitive: the target's window is incremented
    in place of a receive-and-add ring step. Copy-on-write like
    :func:`put`; the payload passes the ``onesided_acc`` SDC hook
    before the add (a wire flip corrupts the accumulated sum).
    """
    from repro.faults.sdc import corrupt_block

    shard = _check_payload(shards, mesh, target, payload, row, col, "onesided_acc")
    landed = corrupt_block("onesided_acc", payload)
    out = dict(shards)
    updated = shard.copy()
    updated[row:row + payload.shape[0], col:col + payload.shape[1]] += landed
    out[target] = updated
    return out


def gather_get(
    shards: Shards,
    mesh: Mesh2D,
    sources: Tuple[Coord, ...],
    axis: int,
) -> np.ndarray:
    """One-sided gather: get each source's full shard and concatenate.

    The get-based replacement of a ring AllGather for one reading chip:
    no ring schedule, no per-step synchronization — just one get per
    source, assembled in the given order. Mismatched source shards are
    rejected eagerly, naming the offending rank (the same contract as
    ``ring_allgather``).
    """
    import numpy as np

    from repro.comm.ops import _check_uniform

    if not sources:
        raise ValueError("gather_get needs at least one source")
    chunks = [
        _source_shard(shards, mesh, coord, "gather_get") for coord in sources
    ]
    _check_uniform(chunks, "gather_get")
    gathered = [
        get(shards, mesh, coord) for coord in sources
    ]
    return np.concatenate(gathered, axis=axis)


def _source_shard(
    shards: Shards, mesh: Mesh2D, coord: Coord, what: str
) -> np.ndarray:
    if not mesh.contains(coord):
        raise ValueError(f"{what}: rank {coord} not in mesh {mesh}")
    shard = shards.get(coord)
    if shard is None:
        raise ValueError(f"{what}: rank {coord} has no shard")
    return shard


def _check_window(
    window: Window, extent: int, what: str, source: Coord, shard: np.ndarray
) -> Tuple[int, int]:
    if window is None:
        return (0, extent)
    start, stop = window
    if not 0 <= start < stop <= extent:
        raise ValueError(
            f"onesided get: {what} window [{start}, {stop}) out of bounds "
            f"for rank {source} shard {shard.shape}"
        )
    return (start, stop)


def _check_payload(
    shards: Shards,
    mesh: Mesh2D,
    target: Coord,
    payload: np.ndarray,
    row: int,
    col: int,
    what: str,
) -> np.ndarray:
    shard = _source_shard(shards, mesh, target, what)
    if payload.dtype != shard.dtype:
        raise ValueError(
            f"{what}: payload dtype {payload.dtype} disagrees with "
            f"rank {target} shard dtype {shard.dtype}"
        )
    if (
        row < 0
        or col < 0
        or row + payload.shape[0] > shard.shape[0]
        or col + payload.shape[1] > shard.shape[1]
    ):
        raise ValueError(
            f"{what}: payload {payload.shape} at ({row}, {col}) does not "
            f"fit rank {target} shard {shard.shape}"
        )
    return shard
