"""Cycle-level simulation kernel.

The kernel models synchronous hardware: components are ticked on the
cycles they are woken and exchange tokens over capacity-limited
:class:`Channel` objects whose pushes become visible on the *next*
cycle (registered-FIFO semantics), which makes results independent of
component tick order.  :class:`DelayLine` models fixed-latency pipes
(e.g. DRAM access latency) and arms timers so cycles in which every
component is stalled on a pending latency are skipped in O(log timers).
"""

from repro.sim.channel import Channel, DelayLine, SoaChannel
from repro.sim.engine import (
    Component,
    CycleLimitError,
    DeadlockError,
    Engine,
)

__all__ = [
    "Channel",
    "Component",
    "CycleLimitError",
    "DeadlockError",
    "DelayLine",
    "Engine",
    "SoaChannel",
]
