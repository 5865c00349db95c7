"""Engine-side observation channel: queue-wait capture.

The event-heap engine knows something the span list cannot reconstruct:
how long each activity sat *ready but blocked* between its dependencies
finishing (its heap ``ready_time``) and its actual start. This module
is the side channel that carries those observations out without
touching the engine's results — the engine appends ``(kind, wait)``
pairs to the active sink, and :func:`repro.sim.cluster.simulate` wraps
execution in :func:`capture_waits` to collect them per run.

Kept import-light on purpose (stdlib only): ``repro.sim.engine``
imports this module, so it must sit below the whole simulation stack.
Capture is per-process and non-reentrant-safe in the trivial way —
nested captures stack, each engine run reports to the innermost one.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple

#: One observation: (activity kind, seconds between ready and start).
WaitSample = Tuple[str, float]

_sinks: List[List[WaitSample]] = []


def wait_sink() -> Optional[List[WaitSample]]:
    """The innermost active capture buffer, or ``None``.

    The engine reads this once per run; ``None`` (no capture active)
    keeps the hot loop untouched.
    """
    return _sinks[-1] if _sinks else None


@contextlib.contextmanager
def capture_waits() -> Iterator[List[WaitSample]]:
    """Collect queue-wait samples from engine runs inside the block.

    Yields the live sample list.
    """
    buffer: List[WaitSample] = []
    _sinks.append(buffer)
    try:
        yield buffer
    finally:
        _sinks.pop()
