"""Request/response tokens exchanged between PEs and memory systems,
plus the freelists that let steady-state simulation reuse them.

Every pooled class carries two class attributes:

* ``_pool`` -- its freelist (a plain list used as a LIFO).  Consumers
  recycle a token with ``type(token)._pool.append(token)`` -- no
  imports needed, which is also how
  :meth:`repro.sim.channel.Channel.pop_line` can recycle whichever
  line-fill type it received.
* ``_fresh`` -- how many objects were constructed because the freelist
  was empty.  In steady state this stops growing: the in-flight
  population circulates through the pools and per-cycle allocations
  drop to zero.  ``pool_stats()`` exposes the counters so benchmarks
  can report allocations per simulated cycle.

Pool lifecycle rule (see DESIGN.md 6.4): every token has exactly one
producer-side acquire and one consumer-side release, both behind the
channel fields API or a component's delivery loop; a released token
must never be reachable from simulation state.  Tokens constructed
directly (tests, cold paths) may enter a pool on release -- that is
harmless, they just join the circulating population.

This module also binds the token classes and freelists into
:mod:`repro.sim.channel` (which cannot import them directly without a
cycle: ``repro.core.bank`` imports ``repro.sim``).
"""

from dataclasses import dataclass


@dataclass(slots=True)
class MomsRequest:
    """A short irregular read (a node value, or a full line at L2).

    ``req_id`` is opaque to the memory system and returned verbatim --
    the PE uses it to recover the suspended edge state (Fig. 10); for
    unweighted graphs it *is* the destination-node offset.  ``port``
    identifies the requester for response routing.
    """

    addr: int
    size: int
    req_id: object = None
    port: int = 0


@dataclass(slots=True)
class MomsResponse:
    """Data for one request: the ``size`` bytes at ``addr``."""

    req_id: object
    addr: int
    data: object  # numpy uint8 slice of length `size`
    port: int = 0


_REGISTERED = []


def register_pool(cls):
    """Give *cls* a freelist and track it.

    Used by this module for the MOMS tokens and by
    :mod:`repro.mem.dram` for its request/response beats.
    """
    cls._pool = []
    cls._fresh = 0
    _REGISTERED.append(cls)
    return cls


register_pool(MomsRequest)
register_pool(MomsResponse)


def pool_stats():
    """Per-class freelist counters: fresh constructions and pool depth."""
    return {
        cls.__name__: {
            "fresh": cls._fresh,
            "pooled": len(cls._pool),
        }
        for cls in _REGISTERED
    }


def fresh_allocations():
    """Total pool-missing token constructions across all pooled classes."""
    return sum(cls._fresh for cls in _REGISTERED)


def reset_pool_counters():
    """Zero the fresh-construction counters (benchmark bracketing)."""
    for cls in _REGISTERED:
        cls._fresh = 0


def _bind_channel_module():
    # repro.sim.channel's fields API recycles these exact
    # classes but cannot import this module at its own import time; we
    # are imported strictly after repro.sim, so inject the bindings.
    from repro.sim import channel as _channel

    _channel._MomsRequest = MomsRequest
    _channel._MomsResponse = MomsResponse
    _channel._request_pool = MomsRequest._pool
    _channel._response_pool = MomsResponse._pool


_bind_channel_module()
