"""Cycle-level simulation kernel.

The kernel models synchronous hardware: components are ticked on the
cycles they are woken and exchange tokens over capacity-limited
:class:`Channel` objects whose pushes become visible on the *next*
cycle (registered-FIFO semantics), which makes results independent of
component tick order.  :class:`DelayLine` models fixed-latency pipes
(e.g. DRAM access latency) and arms timers so cycles in which every
component is stalled on a pending latency are skipped in O(log timers).
"""

from repro.sim.channel import Channel, DelayLine, MomsRequest, MomsResponse
from repro.sim.engine import (
    Component,
    CycleLimitError,
    DeadlockError,
    Engine,
)

_NUMPY_HELP = (
    "numpy is required by the repro core simulator: the functional "
    "memory store is a numpy byte buffer and the MOMS/DRAM/PE batch "
    "kernels operate on numpy arrays.  There is no numpy-free "
    "fallback.  Install it with `pip install numpy`."
)

try:
    import numpy
except ImportError as exc:  # pragma: no cover - exercised only sans numpy
    raise ImportError(_NUMPY_HELP) from exc

__all__ = [
    "Channel",
    "Component",
    "CycleLimitError",
    "DeadlockError",
    "DelayLine",
    "Engine",
    "MomsRequest",
    "MomsResponse",
]
