"""FIFO channels: the simulator's communication primitive.

A channel is *registered*: a token pushed in cycle ``t`` is first
visible to the consumer in cycle ``t + 1``.  Capacity accounting is
also registered -- a slot freed by a pop in cycle ``t`` can only be
reused in cycle ``t + 1`` -- so simulation results do not depend on the
order in which components are ticked within a cycle.  Longer fixed
latencies (DRAM access, die-crossing register stages) are held by the
component that owns them, which arms an engine timer for each token's
maturity cycle.

Channels are preallocated power-of-two ring buffers.  Three integers
describe the whole FIFO state -- ``_head`` (ring index of the oldest
visible token), ``_visible`` (committed tokens), ``_staged_n`` (tokens
pushed this cycle) -- which makes :meth:`Channel.commit`, the single
hottest function in the simulator, integer bookkeeping instead of list
copying.  Staged tokens live at ``(head + visible + staged_n) & mask``;
a pop advances ``head`` and shrinks ``visible`` together, so the staging
region never moves mid-cycle.  A pop clears the slots it consumes, so a
popped token (and the DRAM line copy it may carry) is freed as soon as
its consumer drops it instead of living on until the slot is reused.

On top of the generic object FIFO sits a *fields API*
(:meth:`push_request` / :meth:`front_request`, the ``response``
equivalents and :meth:`pop_line`): hot producers and consumers exchange
plain field values, and the channel builds and reads the
:class:`MomsRequest` / :class:`MomsResponse` tokens behind them.

For the demand-driven engine, channels are also the wake fabric:
consumers subscribe to *data* (tokens visible), producers arm one-shot
*space* wakes (capacity free) where they stall, and every end-of-cycle
:meth:`Channel.commit` wakes the components whose condition holds.
Because commits only run on channels touched during the cycle, wake
traffic is proportional to actual token movement.
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


def _ring_size_for(capacity):
    size = 1
    while size < capacity:
        size *= 2
    return size


class Channel:
    """A capacity-limited FIFO with next-cycle visibility.

    The producer calls :meth:`can_push` / :meth:`push`; the consumer
    calls :meth:`can_pop` / :meth:`front` / :meth:`pop`.  The engine
    calls :meth:`commit` at the end of every cycle to make staged pushes
    visible and to refresh the registered occupancy used for capacity
    checks.
    """

    # Backpressure fault hook: original capacity while throttled.  A
    # class attribute so unthrottled channels pay nothing.
    _base_capacity = None

    def __init__(self, capacity, name=""):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        size = _ring_size_for(capacity)
        self._ring = [None] * size
        self._mask = size - 1
        self._head = 0  # ring index of the oldest visible token
        self._visible = 0  # committed tokens the consumer may pop
        self._staged_n = 0  # tokens pushed this cycle (visible next)
        self._occ = 0  # registered occupancy at cycle start
        self._engine = None
        self._dirty = False  # touched this cycle -> needs commit
        self._data_subs = []  # consumers woken when tokens are visible
        self._space_requests = []  # one-shot space wakes
        # Lifetime statistics, useful for utilization reports.
        self.total_pushed = 0
        self.total_popped = 0

    def bind(self, engine):
        """Attach this channel to an engine (done by Engine.add_channel)."""
        self._engine = engine

    # -- wake wiring --------------------------------------------------------

    def subscribe_data(self, component):
        """Wake *component* whenever a commit leaves tokens visible."""
        if component not in self._data_subs:
            self._data_subs.append(component)
        return self

    def request_space_wake(self, component):
        """One-shot: wake *component* at the next commit with free space.

        The demand engine's backpressure handling: a producer that found
        this channel full arms exactly one wake, so commits with free
        space never wake producers that have nothing to send.
        """
        if component not in self._space_requests:
            self._space_requests.append(component)

    # -- fault hooks --------------------------------------------------------

    def throttle(self, capacity):
        """Clamp the effective capacity (backpressure fault window).

        All producers -- including the arbiters and crossbars that
        inline their capacity arithmetic -- read ``capacity``, so the
        clamp back-pressures every path uniformly.  Tokens already in
        flight stay poppable.  :meth:`restore` undoes the clamp.
        """
        if self._base_capacity is None:
            self._base_capacity = self.capacity
        if capacity > self._mask + 1:
            self._grow_ring(capacity)
        self.capacity = capacity

    def restore(self):
        """Undo :meth:`throttle`; no-op if not throttled."""
        if self._base_capacity is not None:
            self.capacity = self._base_capacity
            self._base_capacity = None

    def _grow_ring(self, capacity):
        """Re-lay the ring for a larger capacity (throttle above base)."""
        count = self._visible + self._staged_n
        old_ring, old_mask, head = self._ring, self._mask, self._head
        size = _ring_size_for(capacity)
        ring = [None] * size
        for i in range(count):
            ring[i] = old_ring[(head + i) & old_mask]
        self._ring = ring
        self._mask = size - 1
        self._head = 0

    def validate(self):
        """Assert occupancy accounting invariants (checked mode only).

        Total in-flight tokens can never exceed the channel's true
        capacity (throttling only lowers the limit for *new* pushes),
        and visible tokens can only shrink within a cycle (pops), never
        grow past the registered occupancy.
        """
        limit = self.capacity if self._base_capacity is None \
            else self._base_capacity
        if self.pending > limit:
            raise AssertionError(
                f"channel {self.name!r}: {self.pending} tokens in flight "
                f"exceeds capacity {limit}"
            )
        if self._visible > self._occ:
            raise AssertionError(
                f"channel {self.name!r}: visible tokens "
                f"({self._visible}) exceed registered occupancy "
                f"({self._occ}) mid-cycle"
            )

    # -- producer side ------------------------------------------------------

    def can_push(self):
        """True if a push this cycle would not exceed capacity."""
        return self._occ + self._staged_n < self.capacity

    def can_push_n(self, n):
        """True if *n* pushes this cycle would not exceed capacity."""
        return self._occ + self._staged_n + n <= self.capacity

    def free_slots(self):
        """Number of pushes still accepted this cycle."""
        return self.capacity - self._occ - self._staged_n

    def push(self, item):
        """Stage *item*; it becomes poppable next cycle."""
        staged = self._staged_n
        if self._occ + staged >= self.capacity:
            raise OverflowError(f"push to full channel {self.name!r}")
        self._ring[(self._head + self._visible + staged) & self._mask] = item
        self._staged_n = staged + 1
        self.total_pushed += 1
        engine = self._engine
        if engine is not None and not self._dirty:
            self._dirty = True
            engine._dirty_channels.append(self)

    def push_many(self, items):
        """Stage several tokens in one call (one capacity check).

        The hot-path variant of :meth:`push` for producers that emit
        bursts -- e.g. a DRAM channel delivering several beats to one
        requester per cycle -- saving per-token bookkeeping.
        """
        n = len(items)
        if n == 0:
            return
        staged = self._staged_n
        if self._occ + staged + n > self.capacity:
            raise OverflowError(
                f"push of {n} tokens to full channel {self.name!r}"
            )
        ring = self._ring
        mask = self._mask
        base = self._head + self._visible + staged
        first = base & mask
        if first + n <= mask + 1:
            ring[first:first + n] = items
        else:
            for i, item in enumerate(items):
                ring[(base + i) & mask] = item
        self._staged_n = staged + n
        self.total_pushed += n
        engine = self._engine
        if engine is not None and not self._dirty:
            self._dirty = True
            engine._dirty_channels.append(self)

    # -- consumer side ------------------------------------------------------

    def can_pop(self):
        """True if a token is available this cycle."""
        return self._visible > 0

    def front(self):
        """Peek at the next token without consuming it."""
        if not self._visible:
            raise IndexError(f"front of empty channel {self.name!r}")
        return self._ring[self._head]

    def pop(self):
        """Consume and return the next token."""
        visible = self._visible
        if not visible:
            raise IndexError(f"pop from empty channel {self.name!r}")
        head = self._head
        ring = self._ring
        item = ring[head]
        ring[head] = None
        self._head = (head + 1) & self._mask
        self._visible = visible - 1
        self.total_popped += 1
        engine = self._engine
        if engine is not None and not self._dirty:
            self._dirty = True
            engine._dirty_channels.append(self)
        return item

    def pop_many(self, limit=None):
        """Consume up to *limit* visible tokens (all of them by default).

        One bookkeeping update for the whole batch -- the consumer-side
        mirror of :meth:`push_many` for components that drain a queue
        in a single tick (DMA beats, write acks).
        """
        n = self._visible
        if limit is not None and limit < n:
            n = limit
        if n <= 0:
            return []
        ring = self._ring
        mask = self._mask
        head = self._head
        if head + n <= mask + 1:
            items = ring[head:head + n]
            ring[head:head + n] = [None] * n
        else:
            items = []
            for i in range(n):
                index = (head + i) & mask
                items.append(ring[index])
                ring[index] = None
        self._head = (head + n) & mask
        self._visible -= n
        self.total_popped += n
        engine = self._engine
        if engine is not None and not self._dirty:
            self._dirty = True
            engine._dirty_channels.append(self)
        return items

    def pop_all(self):
        """Consume every visible token (see :meth:`pop_many`)."""
        return self.pop_many()

    # -- fields API (see module docstring) ----------------------------------

    def push_request(self, addr, size, req_id, port):
        """Stage a MOMS request given as plain fields."""
        self.push(MomsRequest(addr, size, req_id, port))

    def front_request(self):
        """Peek the head request as an ``(addr, size, req_id, port)`` tuple."""
        token = self.front()
        return (token.addr, token.size, token.req_id, token.port)

    def push_response(self, req_id, addr, data, port):
        """Stage a MOMS response given as plain fields."""
        self.push(MomsResponse(req_id, addr, data, port))

    def front_response(self):
        """Peek the head response as a ``(req_id, addr, data, port)`` tuple."""
        token = self.front()
        return (token.req_id, token.addr, token.data, token.port)

    def pop_line(self):
        """Consume a returned memory line as ``(addr, data)``.

        Line fills arrive as either ``MemResponse`` (from DRAM) or
        ``MomsResponse`` (from a next-level MOMS); both carry ``addr``
        and ``data``, so the bank never needs to know which kind it
        received.
        """
        token = self.pop()
        return (token.addr, token.data)

    # -- end of cycle -------------------------------------------------------

    def commit(self):
        """End-of-cycle update; called by the engine on dirty channels."""
        staged = self._staged_n
        if staged:
            self._visible += staged
            self._staged_n = 0
        occupancy = self._visible
        self._occ = occupancy
        self._dirty = False
        engine = self._engine
        if engine is None:
            return
        # Engine.wake() inlined: this loop runs for every token movement
        # in the system, so the call and dedup cost is worth flattening.
        wake = engine._wake_next
        if occupancy and self._data_subs:
            for component in self._data_subs:
                order = component._engine_order
                if order not in wake:
                    wake[order] = component
                    engine.component_wakes += 1
                    engine._wake_counts[order] += 1
        requests = self._space_requests
        if requests and occupancy < self.capacity:
            for component in requests:
                order = component._engine_order
                if order not in wake:
                    wake[order] = component
                    engine.component_wakes += 1
                    engine._wake_counts[order] += 1
            requests.clear()

    def __len__(self):
        """Number of tokens currently visible to the consumer."""
        return self._visible

    @property
    def pending(self):
        """Total tokens in flight (visible + staged)."""
        return self._visible + self._staged_n
