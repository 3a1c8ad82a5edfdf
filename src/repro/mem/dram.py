"""Timed model of one DRAM channel behind the AWS f1 shell.

The model captures the two properties the paper's results hinge on:

* a fixed access latency (tens of accelerator cycles), during which a
  miss-optimized memory system accumulates secondary misses, and
* a service rate that depends on the request kind: 64-byte *burst*
  beats stream at one line per cycle (16 GB/s at 250 MHz) while
  *single* random reads only achieve one line per two cycles (the
  ~8 GB/s shell limitation measured in Section V-A).

Each channel responds strictly in order; out-of-order behaviour only
arises when a transfer is interleaved across several channels, which
is exactly the situation the paper's PEs are designed to tolerate.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.sim import Channel, Component

LINE_BYTES = 64


class _Segment:
    """A read burst's response beats as one arithmetic-progression record.

    The unfaulted form of the response schedule: beat *i* of the
    segment matures at ``t_next + i * step`` with address ``addr + i *
    64`` and beat index ``beat + i`` -- so delivery pops whole due runs
    with integer arithmetic instead of one (ready, response, requester)
    tuple per beat, and the response tokens only materialize at the
    moment they enter the requester's FIFO.  Fields mutate in place as
    beats deliver; ``n`` is the beats remaining.

    Write acknowledgements and any faulted run stay on per-beat tuples
    (a latency-spike clamp or reorder fault rewrites individual beats,
    which the segment form cannot express), so a schedule mixes entry
    kinds only across those paths, never within one.
    """

    __slots__ = ("t_next", "step", "n", "addr", "beat", "last_index",
                 "tag", "respond_to", "issued_at")

    def __init__(self, t_next, step, n, addr, beat, last_index, tag,
                 respond_to, issued_at):
        self.t_next = t_next
        self.step = step
        self.n = n
        self.addr = addr
        self.beat = beat
        self.last_index = last_index
        self.tag = tag
        self.respond_to = respond_to
        self.issued_at = issued_at


@dataclass
class DramTimings:
    """Latency/bandwidth parameters of one channel (in cycles).

    The default latency models the AWS f1 shell's round trip (several
    hundred ns at 250 MHz), which is what gives a MOMS its coalescing
    window: the longer a line is in flight, the more pending misses
    pile onto its MSHR.
    """

    latency: int = 150
    cycles_per_beat_burst: int = 1
    cycles_per_beat_single: int = 2
    request_queue_depth: int = 32
    max_deliveries_per_cycle: int = 4

    def cycles_per_beat(self, kind):
        if kind == "burst":
            return self.cycles_per_beat_burst
        if kind == "single":
            return self.cycles_per_beat_single
        raise ValueError(f"unknown request kind {kind!r}")


@dataclass(slots=True)
class MemRequest:
    """A read or write request against the global address space.

    ``respond_to`` is the channel into which response beats (or the
    write acknowledgement) are pushed; ``tag`` is returned verbatim
    with every response so requesters can match them.
    """

    addr: int
    nbytes: int
    kind: str = "burst"  # 'burst' | 'single'
    is_write: bool = False
    tag: object = None
    respond_to: object = None
    data: object = None  # numpy uint8 array for writes

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("request must cover at least one byte")
        if self.kind not in ("burst", "single"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.is_write and self.data is None:
            raise ValueError("write request needs data")

    @property
    def beats(self):
        return -(-self.nbytes // LINE_BYTES)


@dataclass(slots=True)
class MemResponse:
    """One 64-byte beat of read data, or a write acknowledgement.

    ``issued_at`` is the cycle the channel accepted the originating
    request; telemetry uses it to histogram accept->delivery latency
    (queueing + service + backpressure included).
    """

    tag: object
    addr: int
    data: object = None
    beat: int = 0
    last: bool = True
    is_write_ack: bool = False
    issued_at: int = -1


@dataclass
class DramStats:
    bytes_read: int = 0
    bytes_written: int = 0
    busy_cycles: int = 0
    reads_single: int = 0
    reads_burst: int = 0
    writes: int = 0
    lines_single: int = 0
    lines_burst: int = 0
    lines_written: int = 0
    peak_queue: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def lines_total(self):
        """Read lines delivered, burst + single."""
        return self.lines_burst + self.lines_single

    @property
    def total_beats(self):
        """All data-bus beats serviced (reads and writes)."""
        return self.lines_burst + self.lines_single + self.lines_written

    @property
    def single_line_fraction(self):
        """Share of read lines fetched as single (non-burst) accesses.

        The paper's shell serves singles at half the burst rate, so a
        fraction near 1.0 means the run is paying the ~50% random-read
        bandwidth penalty of Section V-A.
        """
        total = self.lines_total
        return self.lines_single / total if total else 0.0

    @property
    def effective_bandwidth_ratio(self):
        """Beats delivered per busy cycle: 1.0 = pure burst streaming,
        0.5 = all single-beat reads."""
        return self.total_beats / self.busy_cycles if self.busy_cycles \
            else 1.0

    def as_dict(self):
        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_cycles": self.busy_cycles,
            "reads_single": self.reads_single,
            "reads_burst": self.reads_burst,
            "writes": self.writes,
            "lines_single": self.lines_single,
            "lines_burst": self.lines_burst,
            "lines_written": self.lines_written,
            "peak_queue": self.peak_queue,
            "single_line_fraction": round(self.single_line_fraction, 4),
            "effective_bandwidth_ratio": round(
                self.effective_bandwidth_ratio, 4),
        }


class DramChannel(Component):
    """One DDR4 channel: request queue, data bus, fixed-latency responses."""

    # Opt-in fault injection; a class attribute so the unfaulted path
    # pays a single "is None" test (see repro.faults).  Observers see
    # the channel through the one ``_probe`` slot (repro.sim.probe).
    _fault = None

    def __init__(self, timings, store, name="dram"):
        self.timings = timings
        self.store = store
        self.name = name
        self.req = Channel(timings.request_queue_depth, name=f"{name}.req")
        # Mixed deque of per-beat (ready_time, MemResponse, respond_to)
        # tuples (writes, faulted reads) and _Segment records
        # (unfaulted reads).
        self._scheduled = deque()
        self._sched_beats = 0  # total undelivered beats across entries
        self._next_free = 0
        self.stats = DramStats()

    def attach(self, engine):
        """Register this channel's FIFOs with *engine*."""
        engine.add_channel(self.req)
        engine.add_component(self)
        engine.add_time_source(self)
        # New requests wake the channel at their visibility cycle;
        # response maturity is re-armed per tick (see _arm).
        self.req.subscribe_data(self)
        return self

    def tick(self, engine):
        if self._fault is not None:
            blackout_end = self._fault.dram_blackout_until(engine.now)
            if blackout_end:
                # Channel dead for the window: no accepts, no deliveries.
                # Self-arm the wake at the window end; queued requests
                # and due responses are simply served late.
                engine.wake_at(self, blackout_end)
                return
        delivered = self._deliver(engine)
        self._accept(engine)
        self._arm(engine, delivered)

    def _arm(self, engine, delivered):
        """Schedule the wake for the head of the response queue.

        A head maturing in the future sets a timer; a head that is due
        but undelivered was either rate-limited this cycle (re-arm next
        cycle) or blocked on a full requester FIFO (one-shot space wake
        from that FIFO's next commit).  Queued requests need no arming
        here: popping the request FIFO dirties it, and its commit
        re-fires the data subscription while tokens remain.
        """
        if not self._scheduled:
            return
        head = self._scheduled[0]
        if type(head) is tuple:
            head_time, _, respond_to = head
        else:
            head_time, respond_to = head.t_next, head.respond_to
        if head_time > engine.now:
            engine.wake_at(self, head_time)
        elif delivered >= self.timings.max_deliveries_per_cycle \
                or respond_to is None:
            engine.wake(self)
        else:
            respond_to.request_space_wake(self)

    def next_event_time(self):
        """Next cycle at which a scheduled response becomes ready."""
        if not self._scheduled:
            return None
        head = self._scheduled[0]
        return head[0] if type(head) is tuple else head.t_next

    def _tail_ready(self):
        """Maturity cycle of the newest scheduled beat."""
        tail = self._scheduled[-1]
        if type(tail) is tuple:
            return tail[0]
        return tail.t_next + (tail.n - 1) * tail.step

    @property
    def pending(self):
        """Response beats scheduled but not yet delivered."""
        return self._sched_beats

    def _deliver(self, engine):
        delivered = 0
        limit = self.timings.max_deliveries_per_cycle
        scheduled = self._scheduled
        now = engine.now
        store = self.store
        probe = self._probe
        while delivered < limit and scheduled:
            head = scheduled[0]
            if type(head) is not tuple:
                # Segment entry: pop the due run with arithmetic and
                # materialize response tokens only as they enter the
                # requester's FIFO.
                t_next = head.t_next
                if t_next > now:
                    break
                step = head.step
                n_due = (now - t_next) // step + 1
                if n_due > head.n:
                    n_due = head.n
                respond_to = head.respond_to
                if respond_to is None:
                    # Fire-and-forget beats evaporate without ever
                    # materializing.
                    take = min(n_due, limit - delivered)
                    if probe is not None:
                        for i in range(take):
                            probe.dram_evaporate(
                                self, head.addr + i * LINE_BYTES)
                else:
                    space = respond_to.free_slots()
                    if space <= 0:
                        break  # head-of-line blocking at the requester
                    take = min(n_due, limit - delivered, space)
                    # One contiguous copy covers the whole batch (the
                    # segment's beats are address-consecutive); each
                    # response slices its 64-byte window out of it.
                    blob = store.read_bytes(head.addr, take * LINE_BYTES)
                    addr = head.addr
                    beat = head.beat
                    last_index = head.last_index
                    tag = head.tag
                    issued_at = head.issued_at
                    batch = []
                    for i in range(take):
                        if probe is not None:
                            probe.dram_deliver(self, respond_to, addr,
                                               issued_at, now)
                        batch.append(MemResponse(
                            tag, addr,
                            blob[i * LINE_BYTES:(i + 1) * LINE_BYTES],
                            beat, beat == last_index, False, issued_at,
                        ))
                        addr += LINE_BYTES
                        beat += 1
                    respond_to.push_many(batch)
                head.n -= take
                head.beat += take
                head.addr += take * LINE_BYTES
                head.t_next = t_next + take * step
                self._sched_beats -= take
                delivered += take
                if head.n == 0:
                    scheduled.popleft()
                continue
            if head[0] > now:
                break
            _, response, respond_to = head
            if respond_to is None:
                # Fire-and-forget request: the beat evaporates here
                # (data was never attached).
                scheduled.popleft()
                self._sched_beats -= 1
                if probe is not None:
                    probe.dram_evaporate(self, response.addr)
                delivered += 1
                continue
            space = respond_to.free_slots()
            if space <= 0:
                break  # head-of-line blocking at the requester
            # Consecutive due beats bound for the same requester move as
            # one push_many (one capacity check, one dirty registration)
            # -- clamped to free space so partial delivery still happens
            # exactly as with per-beat pushes.
            batch = []
            while (
                len(batch) < space
                and delivered + len(batch) < limit
                and scheduled
                and type(scheduled[0]) is tuple
                and scheduled[0][0] <= now
                and scheduled[0][2] is respond_to
            ):
                _, response, _ = scheduled.popleft()
                self._sched_beats -= 1
                if probe is not None:
                    probe.dram_deliver(self, respond_to, response.addr,
                                       response.issued_at, now)
                if response.data is None and not response.is_write_ack:
                    response.data = store.read_bytes(response.addr, LINE_BYTES)
                batch.append(response)
            respond_to.push_many(batch)
            delivered += len(batch)
        return delivered

    def _accept(self, engine):
        """Accept the head request, if any (one per cycle)."""
        req = self.req
        if not req._visible:
            return
        now = engine.now
        request = req.pop()
        timings = self.timings
        stats = self.stats
        start = max(now, self._next_free)
        beats = request.beats
        tag = request.tag
        addr = request.addr
        respond_to = request.respond_to
        if self._probe is not None:
            self._probe.dram_accept(self, request, now)
        extra_latency = 0 if self._fault is None \
            else self._fault.dram_extra_latency(now)
        if request.is_write:
            self.store.write_bytes(addr, request.data, request.nbytes)
            service = beats * timings.cycles_per_beat_burst
            self._next_free = start + service
            stats.bytes_written += request.nbytes
            stats.writes += 1
            stats.lines_written += beats
            stats.busy_cycles += service
            if respond_to is not None:
                ack = MemResponse(tag, addr, None, 0, True, True, now)
                self._schedule(
                    start + service + timings.latency + extra_latency,
                    ack, respond_to)
        else:
            cpb = timings.cycles_per_beat(request.kind)
            ready_base = start + timings.latency + extra_latency
            if self._fault is None:
                self._schedule_segment(ready_base, cpb, beats, addr, tag,
                                       respond_to, now)
            else:
                last = beats - 1
                for beat in range(beats):
                    response = MemResponse(
                        tag, addr + beat * LINE_BYTES, None, beat,
                        beat == last, False, now,
                    )
                    self._schedule(ready_base + (beat + 1) * cpb, response,
                                   respond_to)
            self._next_free = start + beats * cpb
            stats.bytes_read += beats * LINE_BYTES
            stats.busy_cycles += beats * cpb
            if request.kind == "single":
                stats.reads_single += 1
                stats.lines_single += beats
            else:
                stats.reads_burst += 1
                stats.lines_burst += beats
            queue_depth = req._visible + self._sched_beats
            if queue_depth > stats.peak_queue:
                stats.peak_queue = queue_depth

    def _schedule(self, ready_time, response, respond_to):
        if self._scheduled and ready_time < self._tail_ready():
            if self._fault is not None:
                # An injected latency spike ending between two requests
                # would step the schedule backwards; clamp to the tail
                # so the FIFO delivery order stays intact.
                ready_time = self._tail_ready()
            else:
                # Constant latency and FIFO acceptance keep this monotonic.
                raise AssertionError(
                    "DRAM response schedule went out of order"
                )
        self._scheduled.append((ready_time, response, respond_to))
        self._sched_beats += 1
        if self._probe is not None:
            self._probe.dram_schedule(self, response.addr, 1)
        if self._fault is not None:
            self._fault.dram_maybe_reorder(self._scheduled)

    def _schedule_segment(self, ready_base, cpb, beats, addr, tag,
                          respond_to, now):
        """Schedule a read burst's beats as one :class:`_Segment`.

        The arithmetic form of the per-beat ``_schedule`` loop: beat
        *i* matures at ``ready_base + (i + 1) * cpb`` with address
        ``addr + i * 64``, exactly the tuples a faulted read appends.
        Only reachable while unfaulted (the fault hooks
        rewrite individual beats), so the monotonicity violation is
        always an error here.
        """
        first_ready = ready_base + cpb
        if self._scheduled and first_ready < self._tail_ready():
            raise AssertionError("DRAM response schedule went out of order")
        self._scheduled.append(_Segment(
            first_ready, cpb, beats, addr, 0, beats - 1, tag, respond_to,
            now,
        ))
        self._sched_beats += beats
        if self._probe is not None:
            self._probe.dram_schedule(self, addr, beats)

    def is_idle(self):
        return not self._scheduled and not self.req.pending

