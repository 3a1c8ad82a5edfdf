"""The MOMS bank pipeline.

One bank owns an (optional) cache array, an MSHR file, and a subentry
store.  Requests and responses *share a single pipeline slot per
cycle* -- the contention the paper analyses in Section V-E: a bank that
is busy serving the subentries of a returned line cannot accept new
requests that cycle.

Request path:  probe cache -> hit: respond.  Miss -> MSHR lookup ->
secondary miss: append a subentry (no DRAM traffic -- throughput-wise
as good as a hit).  Primary miss: allocate an MSHR, append the first
subentry, and issue one line request downstream.  Any structural
shortage (MSHR insert failure, no free subentry row, downstream full,
response port full) stalls the head request; nothing is dropped.

Response path: on line return, free the MSHR, fill the cache (if any),
then serve the pending subentries one per cycle.

The bank moves tokens exclusively through the channel *fields API*
(``front_request`` / ``push_response`` / ``pop_line``), so it reads
and writes plain field values rather than token objects.
All backpressure stalls arm one-shot space wakes on the specific full
channel instead of subscribing statically, so a draining response port
no longer wakes a bank with nothing to send.

A cuckoo insert that fails must be retried every cycle, since each
attempt advances the victim-way PRNG.  When the MSHR file proves the
failure hopeless (no empty slot in the line's kick closure), every
retry until a line returns repeats the same failure, so the bank
sleeps instead and settles the retries it slept through in bulk on its
next tick (DESIGN 6.1).
"""

from dataclasses import dataclass, field

from repro.core.cache import CacheArray
from repro.core.mshr import AssociativeMshrFile, CuckooMshrFile
from repro.core.subentry import SubentryStore
from repro.sim import Component

# Outcomes of the request pipeline stage (see MomsBank.tick):
_PROGRESS = "progress"  # head request completed
_SLEEP = "sleep"  # stalled without touching architectural state
_RETRY = "retry"  # stalled after a cuckoo insert mutated PRNG/table state
_SPIN = "spin"  # _RETRY that the MSHR file proved hopeless (see tick)


@dataclass
class BankParams:
    """Structural parameters of one bank."""

    n_mshrs: int = 4096
    n_subentries: int = 32768
    cache_lines: int = 4096
    cache_assoc: int = 1
    line_bytes: int = 64
    subentry_row_size: int = 4
    mshr_ways: int = 4
    mshr_max_kicks: int = 16
    associative_mshrs: bool = False  # traditional-cache mode
    subentries_per_mshr: int = 0  # 0 = unlimited (MOMS); 8 for traditional

    def build_mshr_file(self, seed=1):
        if self.associative_mshrs:
            return AssociativeMshrFile(self.n_mshrs)
        return CuckooMshrFile(
            self.n_mshrs,
            n_ways=self.mshr_ways,
            max_kicks=self.mshr_max_kicks,
            seed=seed,
        )


@dataclass
class BankStats:
    requests: int = 0
    cache_hits: int = 0
    secondary_misses: int = 0
    primary_misses: int = 0
    responses: int = 0
    lines_returned: int = 0
    stall_mshr: int = 0
    stall_subentry: int = 0
    stall_downstream: int = 0
    stall_response_port: int = 0

    @property
    def hit_rate(self):
        """Cache-array hit rate (the x-axis of Fig. 12)."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def no_dram_fraction(self):
        """Share of requests served without a new DRAM line (hits + secondary)."""
        if not self.requests:
            return 0.0
        return (self.cache_hits + self.secondary_misses) / self.requests


class MomsBank(Component):
    """A single bank of a miss-optimized memory system.

    ``req_in`` receives :class:`~repro.sim.MomsRequest`;
    ``resp_out`` emits :class:`~repro.sim.MomsResponse`.
    ``line_in`` receives returned lines (objects with ``addr`` and
    ``data``) from DRAM or from a next-level MOMS.  ``downstream`` is a
    strategy with ``can_accept(line_addr)`` / ``issue(line_addr)`` used
    to request missing lines.
    """

    # Opt-in fault injection (repro.faults); a class attribute so the
    # unfaulted path pays one "is None" test per site.  Observers see
    # the bank through the one ``_probe`` slot (repro.sim.probe).
    _fault = None
    # Cycle of the hopeless retry this bank sleeps after, or None (the
    # class default is its initial value: a new bank is awake).
    _spin_since = None

    def __init__(self, params, req_in, resp_out, line_in, downstream,
                 store, name="bank", seed=1):
        self.params = params
        self.req_in = req_in
        self.resp_out = resp_out
        self.line_in = line_in
        self.downstream = downstream
        self.store = store
        self.name = name
        # Wake on new requests and returned lines.  Backpressure wakes
        # (response port, downstream request port) are one-shots armed
        # at the stall site; MSHR/subentry stalls need no arming at
        # all: those structures only free during this bank's own
        # drains, which line_in wakes.
        req_in.subscribe_data(self)
        line_in.subscribe_data(self)
        self.mshrs = params.build_mshr_file(seed=seed)
        # Cuckoo inserts mutate PRNG/table state even when they fail;
        # associative inserts are pure functions of occupancy.
        self._stateful_mshrs = not params.associative_mshrs
        self.subentries = SubentryStore(
            params.n_subentries, row_size=params.subentry_row_size,
        )
        self.cache = CacheArray(
            params.cache_lines,
            assoc=params.cache_assoc,
            line_bytes=params.line_bytes,
        )
        self.stats = BankStats()
        self._drain_chain = None
        self._drain_addrs = None
        self._drain_index = 0
        self._drain_data = None
        self._drain_base = 0

    # -- simulation -------------------------------------------------------

    def tick(self, engine):
        # Hot path: direct occupancy-int checks avoid method-call
        # overhead on the (frequent) idle cycles.
        spinning = self._spin_since is not None
        if spinning:
            self._settle_spin(engine.now)
        if self._probe is not None:
            self._probe.bank_tick(self, engine.now)
        if spinning and not self.line_in._visible \
                and self.downstream.can_accept(
                    self.req_in.front().addr // self.params.line_bytes):
            # Woken with no line returned (a new request behind the
            # head, or a throttle that left the downstream port open):
            # this cycle's retry fails as the slept ones did, so commit
            # it as one more and sleep on (DESIGN 6.1).
            self._fail_retries(1)
            self._spin_since = engine.now
            return
        if self._drain_chain is not None:
            self._drain_one()
            if self._drain_chain is not None:
                # Mid-drain: keep stepping while the port has room; a
                # port that is full (whether this cycle's push filled
                # it or _drain_one stalled on it) hands the restart to
                # a one-shot space wake.
                if self.resp_out.can_push():
                    engine.wake(self)
                else:
                    self.resp_out.request_space_wake(self)
            elif self.line_in._visible or self.req_in._visible:
                # Drain finished with backlog that arrived (and fired
                # its one-shot wakes) while the pipeline was busy.
                engine.wake(self)
            return
        if self.line_in._visible:
            self._begin_drain(*self.line_in.pop_line())
            if self.resp_out.can_push():
                engine.wake(self)
            else:
                # Fresh drain into a full response port: the port's
                # next space commit must restart the drain.
                self.resp_out.request_space_wake(self)
            return
        if self.req_in._visible:
            outcome = self._handle_request()
            if outcome is _RETRY:
                # A cuckoo insert ran and failed (or succeeded and was
                # rolled back for a missing subentry row): the victim-way
                # generator and possibly the table layout advanced, so
                # the retry cadence is architecturally visible.  Retry
                # every cycle, exactly as a bank ticked every cycle
                # would, or a different attempt would succeed and
                # change the cycle results.
                engine.wake(self)
            elif outcome is _SPIN:
                # Every retry until a line returns fails the same way:
                # only this bank pops req_in, fills the cache, changes
                # the MSHR table and pushes the downstream port.  Sleep
                # until line_in or req_in data wakes the bank, or the
                # fault controller does as it throttles that port.
                self._spin_since = engine.now
            # A _PROGRESS pop re-fires req_in's data subscription at
            # commit.  A _SLEEP stall touched no architectural state, and
            # every event that can unblock it fires a wake -- line_in
            # data (frees MSHRs, subentry rows, and fills the cache) or
            # the one-shot armed on the full channel at the stall site.

    def _settle_spin(self, now):
        """Commit the hopeless retries slept through since ``_spin_since``.

        A bank ticked every cycle would have retried on each of the
        ``now - since - 1`` cycles in between, each attempt a cache
        probe miss (counted only when a cache array exists), an MSHR
        lookup miss, a failing insert and an MSHR stall.
        """
        n = now - self._spin_since - 1
        self._spin_since = None
        if n:
            self._fail_retries(n)

    def _fail_retries(self, n):
        """Commit *n* retries of a head request proved hopeless."""
        if self.cache.present:
            self.cache.stats.probes += n
        mshrs = self.mshrs
        mshrs.stats.lookups += n
        mshrs.fail_hopeless(n)
        self.stats.stall_mshr += n

    def is_idle(self):
        return (
            self._drain_chain is None
            and self.mshrs.occupancy == 0
            and not self.req_in.pending
            and not self.line_in.pending
        )

    @property
    def outstanding_misses(self):
        """Lines currently in flight to memory."""
        return self.mshrs.occupancy

    # -- response path ----------------------------------------------------

    def _begin_drain(self, addr, data):
        line_addr = addr // self.params.line_bytes
        if self._probe is not None:
            # Before mshrs.remove: the ledger must flag a line that was
            # never issued before the remove can KeyError on it.
            self._probe.bank_drain(self, line_addr, self._engine.now)
        entry = self.mshrs.remove(line_addr)
        self.cache.fill(line_addr)
        self.stats.lines_returned += 1
        chain = entry.subentry_head
        self._drain_chain = chain
        self._drain_addrs = [addr + offset for offset in chain.offset]
        self._drain_index = 0
        self._drain_data = data
        self._drain_base = addr

    def _drain_one(self):
        """Serve one subentry per cycle straight from the chain's field
        columns."""
        resp_out = self.resp_out
        if not resp_out.can_push():
            self.stats.stall_response_port += 1
            resp_out.request_space_wake(self)
            return
        chain = self._drain_chain
        index = self._drain_index
        req_id = chain.req_id[index]
        if self._probe is not None:
            # Pre-corruption id: the span keeps matching what the PE
            # issued even under the mutation-smoke fault.
            self._probe.bank_replay(
                self, req_id, chain.port[index],
                self._drain_base // self.params.line_bytes,
                self._engine.now,
            )
        if self._fault is not None:
            # Mutation smoke: deterministically corrupt one response ID
            # so tests can prove the PE-side ledger catches it.
            req_id = self._fault.corrupt_moms_token(req_id)
        offset = chain.offset[index]
        data = self._drain_data
        resp_out.push_response(
            req_id, self._drain_addrs[index],
            data[offset:offset + chain.size[index]], chain.port[index],
        )
        self.stats.responses += 1
        self._drain_index = index + 1
        if self._drain_index == len(chain.req_id):
            self.subentries.free_chain(chain)
            self._drain_chain = None
            self._drain_addrs = None
            self._drain_data = None

    # -- request path -----------------------------------------------------

    def _handle_request(self):
        """Process the head request; returns one of the outcome codes.

        ``_SLEEP`` stalls happened before any stateful structure was
        touched (response port full, subentry row shortage, downstream
        full, associative MSHR file full): retrying them later gives the
        same answer, so the bank may sleep until the stalled channel's
        one-shot wake (or a line return) fires.  ``_RETRY`` stalls ran
        a cuckoo insert first and must be retried every cycle to keep
        the victim-way generator sequence that of a bank ticked every
        cycle.  ``_SPIN`` is a ``_RETRY`` insert failure the MSHR file
        proved hopeless while the file has no fault hook (a forced-full
        window opening mid-sleep would fail a retry without drawing).
        """
        stats = self.stats
        req_in = self.req_in
        addr, size, req_id, port = req_in.front_request()
        line_bytes = self.params.line_bytes
        line_addr = addr // line_bytes
        offset = addr - line_addr * line_bytes

        if self.cache.probe(line_addr):
            resp_out = self.resp_out
            if not resp_out.can_push():
                stats.stall_response_port += 1
                resp_out.request_space_wake(self)
                return _SLEEP
            req_in.pop()
            resp_out.push_response(
                req_id, addr, self.store.read_bytes(addr, size), port
            )
            stats.requests += 1
            stats.cache_hits += 1
            stats.responses += 1
            if self._probe is not None:
                self._probe.bank_hit(self, req_id, port, line_addr,
                                     self._engine.now)
            return _PROGRESS

        subentry = (req_id, port, offset, size)
        entry = self.mshrs.lookup(line_addr)
        if entry is not None:
            limit = self.params.subentries_per_mshr
            if limit and entry.subentry_count >= limit:
                stats.stall_subentry += 1
                return _SLEEP
            if not self.subentries.append(entry.subentry_head, subentry):
                stats.stall_subentry += 1
                return _SLEEP
            entry.subentry_count += 1
            req_in.pop()
            stats.requests += 1
            stats.secondary_misses += 1
            if self._probe is not None:
                self._probe.bank_merge(self, req_id, port, line_addr,
                                       self._engine.now)
            return _PROGRESS

        # Primary miss: all three structures must have room before any
        # side effect happens, so a stalled request retries cleanly.
        downstream = self.downstream
        if not downstream.can_accept(line_addr):
            stats.stall_downstream += 1
            downstream.request_wake(line_addr, self)
            return _SLEEP
        mshrs = self.mshrs
        new_entry = mshrs.insert(line_addr)
        if new_entry is None:
            stats.stall_mshr += 1
            if not self._stateful_mshrs:
                return _SLEEP
            if mshrs.hopeless and mshrs._fault is None:
                return _SPIN
            return _RETRY
        chain = self.subentries.new_chain()
        if not self.subentries.append(chain, subentry):
            mshrs.remove(line_addr)
            stats.stall_subentry += 1
            return _RETRY if self._stateful_mshrs else _SLEEP
        new_entry.subentry_head = chain
        new_entry.subentry_count = 1
        downstream.issue(line_addr)
        if self._probe is not None:
            self._probe.bank_alloc(self, req_id, port, line_addr,
                                   self._engine.now)
        req_in.pop()
        stats.requests += 1
        stats.primary_misses += 1
        return _PROGRESS
