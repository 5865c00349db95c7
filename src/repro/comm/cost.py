"""Analytical communication cost model (Sections 3.2.2 and 4.5).

The paper models the cost of a collective operation on a ring of ``P``
chips as a linear function::

    cost_op = t_launch + (P - 1) * (t_sync + sizeof(shard) / bw)

which fits ring AllGather/ReduceScatter well because their shard
transfers are synchronized and contention-free. This module implements
that model, plus the corresponding models for SUMMA's pipelined
bcast/reduce (which pay a synchronization per pipeline stage and suffer
P-1 bubble stages) and point-to-point SendRecv. Every cost is broken
down into the three components the paper reports in Figure 10: launch,
transfer, and sync. Costs also carry the HBM traffic the operation
generates on each chip, which the simulator uses to model contention
between the NIC and the compute cores.
"""

from __future__ import annotations

import dataclasses

from repro.hw.params import HardwareParams


@dataclasses.dataclass(frozen=True)
class CommCost:
    """Cost of one communication operation on one chip's critical path.

    Attributes:
        launch: Host launch overhead (seconds).
        transfer: Time the links spend moving bytes, including pipeline
            bubbles for bcast/reduce (seconds).
        sync: Total synchronization latency (seconds).
        hbm_bytes: Bytes of HBM traffic (reads plus writes) the
            operation generates on one chip.
        syncs: Number of synchronization events (for overhead analysis).
        wire_bytes: Bytes the chip transmits over its network links
            (used to model NIC contention on logical meshes,
            Section 6).
    """

    launch: float
    transfer: float
    sync: float
    hbm_bytes: float
    syncs: int
    wire_bytes: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end duration of the operation (seconds)."""
        return self.launch + self.transfer + self.sync

    def scaled(self, factor: float) -> "CommCost":
        """All components multiplied by ``factor`` (syncs rounded up)."""
        return CommCost(
            launch=self.launch * factor,
            transfer=self.transfer * factor,
            sync=self.sync * factor,
            hbm_bytes=self.hbm_bytes * factor,
            syncs=int(round(self.syncs * factor)),
            wire_bytes=self.wire_bytes * factor,
        )

    def __add__(self, other: "CommCost") -> "CommCost":
        return CommCost(
            launch=self.launch + other.launch,
            transfer=self.transfer + other.transfer,
            sync=self.sync + other.sync,
            hbm_bytes=self.hbm_bytes + other.hbm_bytes,
            syncs=self.syncs + other.syncs,
            wire_bytes=self.wire_bytes + other.wire_bytes,
        )


ZERO_COST = CommCost(
    launch=0.0, transfer=0.0, sync=0.0, hbm_bytes=0.0, syncs=0, wire_bytes=0.0
)


class CommCostModel:
    """Closed-form per-operation communication costs for one machine.

    Args:
        hw: Hardware parameters providing link bandwidth and the
            measured ``t_sync`` / ``t_launch`` constants.
    """

    def __init__(self, hw: HardwareParams):
        self.hw = hw
        # The per-op cost formulas below run tens of thousands of times
        # per sweep; hoist the hardware scalars (``ring_bandwidth`` is a
        # computed property) out of the hot path.
        self._t_launch = hw.t_launch
        self._t_sync = hw.t_sync
        self._bw = hw.ring_bandwidth

    #: Flyweight pool: the cost model is immutable per hardware config,
    #: and the sweeps construct one per estimate/program otherwise.
    _instances: "dict" = {}

    @classmethod
    def for_hw(cls, hw: HardwareParams) -> "CommCostModel":
        """The shared cost model of ``hw`` (do not mutate)."""
        model = cls._instances.get(hw)
        if model is None:
            model = cls._instances[hw] = cls(hw)
        return model

    def allgather(self, ring_size: int, shard_bytes: float) -> CommCost:
        """Ring AllGather of per-chip shards of ``shard_bytes``.

        Each of the ``P - 1`` steps moves one shard per link and pays
        one synchronization (Figure 3, right). Each received shard is
        written to HBM and each forwarded shard is read back.
        """
        self._check(ring_size, shard_bytes)
        if ring_size == 1:
            return ZERO_COST
        steps = ring_size - 1
        return CommCost(
            self._t_launch,
            steps * shard_bytes / self._bw,
            steps * self._t_sync,
            2.0 * steps * shard_bytes,
            steps,
            steps * shard_bytes,
        )

    def reducescatter(self, ring_size: int, shard_bytes: float) -> CommCost:
        """Ring ReduceScatter producing per-chip shards of ``shard_bytes``.

        Same communication pattern as AllGather; the accumulation adds
        one extra HBM read of the local contribution per step.
        """
        self._check(ring_size, shard_bytes)
        if ring_size == 1:
            return ZERO_COST
        steps = ring_size - 1
        return CommCost(
            self._t_launch,
            steps * shard_bytes / self._bw,
            steps * self._t_sync,
            3.0 * steps * shard_bytes,
            steps,
            steps * shard_bytes,
        )

    def broadcast(
        self, ring_size: int, shard_bytes: float, packets: int
    ) -> CommCost:
        """SUMMA's pipelined ring broadcast of one shard (Figure 3, left).

        The shard is split into ``packets`` fine-grain packets streamed
        over the ring in ``P + D - 1`` pipeline stages; every stage pays
        a synchronization, and ``P - 1`` of the stages are bubbles on
        any given link.
        """
        self._check(ring_size, shard_bytes)
        if packets < 1:
            raise ValueError(f"packets must be >= 1, got {packets}")
        if ring_size == 1:
            return ZERO_COST
        stages = ring_size + packets - 2
        packet_bytes = shard_bytes / packets
        return CommCost(
            self._t_launch,
            stages * packet_bytes / self._bw,
            stages * self._t_sync,
            2.0 * shard_bytes,
            stages,
            shard_bytes,
        )

    def reduce(self, ring_size: int, shard_bytes: float, packets: int) -> CommCost:
        """SUMMA's pipelined all-to-one ring reduce of one shard.

        Same pipeline structure as :meth:`broadcast`; accumulation adds
        an extra HBM read per byte.
        """
        cost = self.broadcast(ring_size, shard_bytes, packets)
        return dataclasses.replace(cost, hbm_bytes=cost.hbm_bytes * 1.5)

    def sendrecv(self, message_bytes: float, hops: int = 1) -> CommCost:
        """Point-to-point SendRecv of ``message_bytes`` over ``hops`` links."""
        if message_bytes < 0:
            raise ValueError("message_bytes must be non-negative")
        if hops < 0:
            raise ValueError("hops must be non-negative")
        if hops == 0 or message_bytes == 0:
            return ZERO_COST
        return CommCost(
            self._t_launch,
            hops * message_bytes / self._bw,
            hops * self._t_sync,
            2.0 * message_bytes,
            hops,
            hops * message_bytes,
        )

    @staticmethod
    def _check(ring_size: int, shard_bytes: float) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if shard_bytes < 0:
            raise ValueError(f"shard_bytes must be non-negative, got {shard_bytes}")
