"""Cycle-resolved telemetry: gauges, latency histograms, stall
accounting, request spans and the flight recorder.

The paper's headline argument is about *occupancy over time* -- a
miss-optimized memory system wins because thousands of misses stay in
flight across the DRAM latency window -- yet scalar end-of-run counters
cannot show that shape.  This module records it:

* **Gauges / timelines** -- a periodic sampler (driven from the engine
  run loop, one ``is None`` test per step when disabled) snapshots MSHR
  occupancy per bank, subentry-buffer fill, DRAM queue depths and
  rolling bandwidth (burst vs single split), and PE input/output
  backpressure into a per-run time series.
* **Request table** -- every MOMS request is followed end to end (PE
  issue, crossbar hop, bank outcome, line fetch, DRAM accept/deliver,
  replay, retire) in one in-flight table, and every primary miss's
  line fetch in another.  Both latency histograms read these records:
  issue->retire per requester (PE MOMS reads) and fetch issue->line
  drain per bank; a third, per DRAM channel, is accept->beat delivery.
* **Sampled spans** -- 1 of every ``sample_rate`` requests per PE keeps
  its full record, which :mod:`repro.telemetry.analyze` decomposes
  into exact per-stage latencies (DESIGN 6.8).
* **Flight recorder** -- a bounded ring of the most recent events of
  *every* request, embedded in stall reports.
* **Stall attribution** -- every PE and bank cycle in the run window is
  attributed to exactly one category (busy, pipeline, waiting-on-mem,
  output-backpressure, raw-stall, mshr-full, subentry-full,
  downstream-full, idle); the per-component table sums exactly to the
  run's cycle count by construction.
* **Phases** -- PE phase intervals (idle/init/pointers/stream/writeback)
  drawn on the run's Perfetto timeline (:mod:`repro.timeline`).

The per-event hooks are probe events (:mod:`repro.sim.probe`): the
components' one ``_probe`` slot defaults to ``None``, so the disabled
path costs one attribute load and ``is None`` test per site, and the
enabled path never perturbs architectural state -- cycle counts and
results are bit-identical with telemetry on or off.

Demand-driven caveat: samples are taken on *simulated* cycles only.
During fast-forwarded idle windows no component state changes, so the
skipped samples would have repeated the previous row; the timeline
simply has no duplicate points there.
"""

import math
from collections import deque
from dataclasses import dataclass

from repro.accel.pe import (
    IDLE as PE_IDLE,
    INIT_CONST,
    INIT_VIN,
    POINTERS,
    STREAM,
    WRITEBACK,
)
from repro.faults.plan import _MASK64, _splitmix64
from repro.mem.dram import LINE_BYTES
from repro.records import Record
from repro.telemetry.analyze import analyze_spans

# v3 dropped v2's "fusion" block (the engine no longer fuses cycles);
# consumers are tolerant of missing keys.
TELEMETRY_SCHEMA_VERSION = 3

# "spans"/"spans_dropped" count the PE phase intervals; the sampled
# request spans have their own record, SPAN_SUMMARY.
TELEMETRY_SUMMARY = Record(
    "telemetry summary", "version", TELEMETRY_SCHEMA_VERSION, (
        "version", "cycles", "sample_interval", "samples",
        "samples_dropped", "spans", "spans_dropped", "mshr_peak",
        "mshr_mean", "pe_stalls", "bank_stalls", "cache",
        "moms_latency", "miss_latency", "dram_latency", "dram",
    ))

SPAN_SUMMARY = Record(
    "span summary", "schema", 1, (
        "schema", "sample_rate", "requests_seen", "spans_sampled",
        "spans_completed", "spans_live", "stages", "merge_fanin",
        "recorder",
    ))

# Stall-attribution categories.  Every accounted cycle lands in exactly
# one of these; BUSY and PIPELINE are the productive buckets.
BUSY = "busy"
PIPELINE = "pipeline"
WAIT_MEM = "waiting-on-mem"
BACKPRESSURE = "output-backpressure"
RAW = "raw-stall"
MSHR_FULL = "mshr-full"
SUBENTRY_FULL = "subentry-full"
DOWNSTREAM_FULL = "downstream-full"
IDLE = "idle"

PE_REASONS = (BUSY, PIPELINE, WAIT_MEM, BACKPRESSURE, RAW, IDLE)
BANK_REASONS = (BUSY, WAIT_MEM, BACKPRESSURE, MSHR_FULL, SUBENTRY_FULL,
                DOWNSTREAM_FULL, IDLE)


# Memory bounds of one collection.  Past MAX_SAMPLES rows the collector
# decimates its samples (drops every other row) and doubles the sampling
# interval, so arbitrarily long runs stay bounded; past MAX_PHASES phase
# intervals, further ones are counted, not stored.
MAX_SAMPLES = 1 << 16
MAX_PHASES = 250_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of one telemetry collection.

    ``sample_interval`` is the gauge-sampling period in cycles (doubled
    each time the rows pass :data:`MAX_SAMPLES`); ``sample_rate`` keeps
    the full span of 1 of every N requests per PE (1 = every request).
    """

    sample_interval: int = 256
    sample_rate: int = 16

    def __post_init__(self):
        for knob in ("sample_interval", "sample_rate"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be >= 1")


def sample_hash(pe, seq):
    """The sampling hash for request *seq* issued by PE *pe*.

    Mixes the two coordinates into one 64-bit lane and runs the same
    splitmix64 finalizer the fault plans use.  Everything feeding it
    is schedule-determined, which is the whole determinism story.
    """
    _state, value = _splitmix64(((pe + 1) << 40) ^ seq)
    return value & _MASK64


class FlightRecorder:
    """Always-on bounded ring of the most recent request events.

    Unlike the sampled spans this sees *every* request event, so its
    tail is the "what just happened" evidence embedded in watchdog
    stall reports and failed-replay output.  Events are stored as
    compact tuples and only formatted when a report is actually built.
    """

    def __init__(self, depth=256):
        self.depth = depth
        self.events = deque(maxlen=depth)
        self.recorded = 0

    def record(self, cycle, kind, where, detail):
        self.recorded += 1
        self.events.append((cycle, kind, where, detail))

    def tail(self, limit=None):
        """The last *limit* events, oldest first, as plain dicts."""
        events = list(self.events)
        if limit is not None and limit < len(events):
            events = events[len(events) - limit:]
        return [
            {"cycle": cycle, "event": kind, "where": where, "detail": detail}
            for cycle, kind, where, detail in events
        ]

    def format_tail(self, limit=16):
        """The tail as aligned report lines (oldest first)."""
        return [
            "[{cycle:>10}] {event:<12} {where:<16} {detail}".format(**event)
            for event in self.tail(limit)
        ]


class LatencyHistogram:
    """Log2-bucketed latency histogram.

    Bucket ``b`` counts latencies with ``bit_length() == b``, i.e. the
    interval ``[2**(b-1), 2**b - 1]`` (bucket 0 is exactly latency 0),
    which is how the FPGA implementation would bucket with a priority
    encoder.
    """

    N_BUCKETS = 48  # covers latencies up to 2**47 cycles

    __slots__ = ("counts", "total", "sum", "max")

    def __init__(self):
        self.counts = [0] * self.N_BUCKETS
        self.total = 0
        self.sum = 0
        self.max = 0

    def record(self, latency):
        if latency < 0:
            latency = 0
        bucket = latency.bit_length()
        if bucket >= self.N_BUCKETS:
            bucket = self.N_BUCKETS - 1
        self.counts[bucket] += 1
        self.total += 1
        self.sum += latency
        if latency > self.max:
            self.max = latency

    def merge(self, other):
        for bucket, count in enumerate(other.counts):
            self.counts[bucket] += count
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        return self

    @property
    def mean(self):
        return self.sum / self.total if self.total else 0.0

    def percentile(self, fraction):
        """Upper bound of the log2 bucket holding the given quantile."""
        if not self.total:
            return 0
        target = max(1, math.ceil(self.total * fraction))
        cumulative = 0
        for bucket, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                return (1 << bucket) - 1 if bucket else 0
        return self.max

    def as_dict(self):
        buckets = {
            str(bucket): count
            for bucket, count in enumerate(self.counts) if count
        }
        return {
            "count": self.total,
            "mean": round(self.mean, 2),
            "max": self.max,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "log2_buckets": buckets,
        }

    def compact(self):
        """The few numbers worth carrying in a sweep journal row."""
        return {
            "count": self.total,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


class _Account:
    """Cycle-attribution bookkeeping for one PE or bank."""

    __slots__ = ("label", "last_tick", "snapshot", "buckets")

    def __init__(self, label):
        self.label = label
        self.last_tick = None  # cycle of the not-yet-classified last tick
        self.snapshot = None
        self.buckets = {}

    def add(self, reason, cycles):
        if cycles:
            self.buckets[reason] = self.buckets.get(reason, 0) + cycles

    def total(self):
        return sum(self.buckets.values())


# -- per-component snapshots and classifiers --------------------------------
#
# A tick is classified at the *next* settle point (the following tick or
# the run's finalize) from the deltas of cheap monotonic counters, so
# the hooks never need to thread outcome flags through the tick bodies.


def _pe_snapshot(pe):
    stats = pe.stats
    dma_pushes = 0
    for port in pe.dma.channel_ports:
        if port is not None:
            dma_pushes += port.total_pushed
    return (
        stats.edges_processed,
        stats.raw_stalls,
        stats.moms_request_stalls + stats.id_stalls,
        pe.dma_resp.total_popped,
        pe.moms_resp.total_popped,
        pe.moms_req.total_pushed,
        dma_pushes,
        stats.jobs_completed,
        getattr(pe, "_applied", 0),
        getattr(pe, "_wb_sent", 0),
        len(pe._pipeline),
    )


def _pe_wait_reason(pe):
    """Why the PE is not progressing, judged from its current state."""
    phase = pe._phase
    if phase == PE_IDLE:
        return IDLE
    if phase in (INIT_CONST, INIT_VIN, POINTERS, WRITEBACK):
        return WAIT_MEM  # blocked on DMA beats or write acknowledgements
    # STREAM: prefer the output-side diagnosis when the request port is
    # the binding constraint, then in-flight memory, then the arithmetic
    # pipeline.
    if pe._edge_queue and pe.moms_req.free_slots() == 0:
        return BACKPRESSURE
    if pe._outstanding_moms or pe._bursts_outstanding:
        return WAIT_MEM
    if pe._pipeline:
        return PIPELINE
    return BUSY


def _classify_pe_tick(pe, old, new):
    if (new[0] > old[0] or new[3] > old[3] or new[4] > old[4]
            or new[5] > old[5] or new[6] > old[6] or new[7] > old[7]
            or new[8] != old[8] or new[9] != old[9] or new[10] != old[10]):
        return BUSY
    if new[1] > old[1]:
        return RAW
    if new[2] > old[2]:
        return BACKPRESSURE
    return _pe_wait_reason(pe)


def _bank_snapshot(bank):
    stats = bank.stats
    return (
        stats.requests,
        stats.responses,
        stats.lines_returned,
        stats.stall_mshr,
        stats.stall_subentry,
        stats.stall_downstream,
        stats.stall_response_port,
    )


def _bank_wait_reason(bank):
    if bank._drain_chain is not None:
        # A mid-drain bank only sleeps when the response port is full
        # (with room it re-wakes itself every cycle), so a gap in this
        # state is backpressure, as a bank ticked every cycle would
        # count it in stall_response_port.
        return BACKPRESSURE
    if bank.mshrs.occupancy:
        return WAIT_MEM
    return IDLE


def _classify_bank_tick(bank, old, new):
    if new[0] > old[0] or new[1] > old[1] or new[2] > old[2]:
        return BUSY
    if new[3] > old[3]:
        return MSHR_FULL
    if new[4] > old[4]:
        return SUBENTRY_FULL
    if new[5] > old[5]:
        return DOWNSTREAM_FULL
    if new[6] > old[6]:
        return BACKPRESSURE
    return _bank_wait_reason(bank)


# (snapshot, classify, wait_reason) per accounted component kind.
_PE_RULES = (_pe_snapshot, _classify_pe_tick, _pe_wait_reason)
_BANK_RULES = (_bank_snapshot, _classify_bank_tick, _bank_wait_reason)


def _gap_reason(tick_reason, wait_reason):
    """Attribute the sleep window following a tick.

    A tick that ended in a stall keeps stalling until the wake that
    ends the gap; a productive (or idle) tick's gap is attributed from
    the component's wait state instead.
    """
    if tick_reason in (BUSY, IDLE):
        return wait_reason
    return tick_reason


class Telemetry:
    """The one run observer, attached to an AcceleratorSystem.

    The engine drives the sampler (``engine.sampler``); PEs, banks,
    crossbars and DRAM channels report events through their probe,
    which the accelerator system installs with this collector among its
    observers.  Everything here observes -- no method mutates any
    simulated structure -- and is plain data, so it pickles with a
    snapshot and a resumed run continues every table exactly.

    Request identity (DESIGN 6.8): ``req_id`` values are *reused*
    (unweighted requests use the destination offset, weighted ones
    recycle a per-PE free list), so spans are keyed ``(pe, per-PE
    issue seq)`` and in-flight matching uses FIFO deques per ``(pe,
    req_id, line_addr)``.  The line is part of the key because
    responses are only issue-ordered *per line*: a hit for one line can
    overtake a miss for another that shares its ``req_id``.  Line
    fetches are tracked for **every** primary miss, because a sampled
    secondary miss merges into whatever fetch its line already has.
    """

    def __init__(self, config=None):
        self.config = config or TelemetryConfig()
        self.sample_interval = self.config.sample_interval
        self.next_sample = 0  # read by the engine run loop
        self.samples = []
        self.samples_dropped = 0
        self.start_cycle = 0
        self.end_cycle = None
        self._system = None
        self._pes = []
        self._banks = []
        self._dram = []
        self._pe_accounts = {}
        self._bank_accounts = {}
        # Latency histograms.
        self.moms_latency = {}  # pe_index -> LatencyHistogram
        self.miss_latency = {}  # bank name -> LatencyHistogram
        self.dram_latency = {}  # channel name -> LatencyHistogram
        # Request and line-fetch tables, sampled spans, flight recorder.
        self.recorder = FlightRecorder()
        self.spans = []  # completed sampled request records
        self.requests_seen = 0
        self.sampled = 0
        self.fanin = {}  # bank name -> {merge fan-in -> drains}
        self._seq = {}  # pe -> requests issued so far
        self._inflight = {}  # (pe, req_id, line_addr) -> request deque
        self._fetches = {}  # (bank name, line_addr) -> deque of fetches
        self._line_owner = {}  # fill channel -> DRAM-facing bank name
        # PE phase intervals.
        self.phases = []  # (track, track_id, label, start, end)
        self.phases_dropped = 0
        self._open_phase = {}  # pe_index -> (phase, start)
        # Rolling-bandwidth baselines per DRAM channel.
        self._dram_prev = {}  # name -> (cycle, bytes, burst_lines, single_lines)

    # -- wiring --------------------------------------------------------------

    def attach(self, system):
        """Register *system*'s components and become its engine sampler.

        The per-event hooks arrive through the probe the system
        installs once every observer is attached.
        """
        self._system = system
        engine = system.engine
        engine.sampler = self
        now = engine.now
        self.next_sample = now
        for pe in system.pes:
            self._pes.append(pe)
            self._pe_accounts[pe] = _Account(f"pe{pe.pe_index}")
            self.moms_latency[pe.pe_index] = LatencyHistogram()
            self._open_phase[pe.pe_index] = (pe._phase, now)
        for bank in system.hierarchy.banks:
            self._banks.append(bank)
            self._bank_accounts[bank] = _Account(bank.name)
            self.miss_latency[bank.name] = LatencyHistogram()
            self._line_owner[bank.line_in] = bank.name
        for channel in system.mem.channels:
            self._dram.append(channel)
            self.dram_latency[channel.name] = LatencyHistogram()
            stats = channel.stats
            self._dram_prev[channel.name] = (
                now, stats.bytes_read + stats.bytes_written,
                stats.lines_burst, stats.lines_single,
            )
        return self

    @property
    def banks(self):
        """The attached cache banks (for structure-stat export)."""
        return tuple(self._banks)

    @property
    def dram_channels(self):
        """The attached DRAM channels (for structure-stat export)."""
        return tuple(self._dram)

    def begin(self, engine):
        """Mark the start of the accounted run window."""
        self.start_cycle = engine.now
        self.next_sample = engine.now

    def finalize(self, engine):
        """Close the run window: settle trailing ticks, gaps and phases."""
        end = engine.now
        self.end_cycle = end
        for rules, accounts in ((_PE_RULES, self._pe_accounts),
                                (_BANK_RULES, self._bank_accounts)):
            for component, account in accounts.items():
                if account.last_tick is None:
                    account.add(IDLE,
                                end - self.start_cycle - account.total())
                else:
                    self._settle(account, component, end, rules)
                account.last_tick = None
                account.snapshot = None
        for pe_index, (phase, start) in list(self._open_phase.items()):
            if end > start:
                self._add_phase(pe_index, phase, start, end)
            self._open_phase[pe_index] = (phase, end)

    # -- sampler (driven by Engine.run) --------------------------------------

    def sample(self, engine):
        """Record one gauge row; called by the engine when due."""
        now = engine.now
        row = {"cycle": now}
        total_mshr = 0
        total_subentries = 0
        for bank in self._banks:
            occupancy = bank.mshrs.occupancy
            row[f"bank.{bank.name}.mshr"] = occupancy
            live = bank.subentries.entries_live
            row[f"bank.{bank.name}.subentries"] = live
            row[f"bank.{bank.name}.line_in"] = bank.line_in.pending
            total_mshr += occupancy
            total_subentries += live
        row["mshr_total"] = total_mshr
        row["subentries_total"] = total_subentries
        for channel in self._dram:
            stats = channel.stats
            name = channel.name
            row[f"dram.{name}.queue"] = (
                channel.req.pending + channel.pending
            )
            prev_cycle, prev_bytes, prev_burst, prev_single = \
                self._dram_prev[name]
            elapsed = now - prev_cycle
            total_bytes = stats.bytes_read + stats.bytes_written
            if elapsed > 0:
                row[f"dram.{name}.bw_bytes_per_cycle"] = round(
                    (total_bytes - prev_bytes) / elapsed, 3
                )
            else:
                row[f"dram.{name}.bw_bytes_per_cycle"] = 0.0
            row[f"dram.{name}.burst_lines"] = stats.lines_burst - prev_burst
            row[f"dram.{name}.single_lines"] = (
                stats.lines_single - prev_single
            )
            self._dram_prev[name] = (
                now, total_bytes, stats.lines_burst, stats.lines_single,
            )
        for pe in self._pes:
            index = pe.pe_index
            row[f"pe.{index}.edge_queue"] = len(pe._edge_queue)
            row[f"pe.{index}.moms_outstanding"] = pe._outstanding_moms
            row[f"pe.{index}.req_fill"] = pe.moms_req.pending
            row[f"pe.{index}.resp_fill"] = pe.moms_resp.pending
        row["channel_tokens_total"] = sum(
            channel.pending for channel in engine._channels
        )
        self.samples.append(row)
        if len(self.samples) > MAX_SAMPLES:
            # Bound memory on long runs: halve resolution, keep coverage.
            self.samples_dropped += len(self.samples) - \
                len(self.samples[::2])
            self.samples = self.samples[::2]
            self.sample_interval *= 2
        interval = self.sample_interval
        self.next_sample = now - now % interval + interval

    # -- per-tick accounting hooks -------------------------------------------

    def _settle(self, account, component, now, rules):
        """Classify *component*'s previous tick and the gap up to *now*."""
        snapshot, classify, wait_reason = rules
        new = snapshot(component)
        last = account.last_tick
        if last is None:
            account.add(IDLE, now - self.start_cycle)
        else:
            reason = classify(component, account.snapshot, new)
            account.add(reason, 1)
            gap = now - last - 1
            if gap > 0:
                account.add(_gap_reason(reason, wait_reason(component)),
                            gap)
        account.last_tick = now
        account.snapshot = new

    def pe_tick(self, pe, now):
        """Settle the PE's previous tick and sleep gap (at tick start)."""
        self._settle(self._pe_accounts[pe], pe, now, _PE_RULES)

    def bank_tick(self, bank, now):
        """Settle the bank's previous tick and sleep gap."""
        self._settle(self._bank_accounts[bank], bank, now, _BANK_RULES)

    # -- phase hooks ---------------------------------------------------------

    def _add_phase(self, pe_index, label, start, end):
        if len(self.phases) >= MAX_PHASES:
            self.phases_dropped += 1
            return
        self.phases.append(("pe", pe_index, label, start, end))

    def pe_phase(self, pe, new_phase, now):
        """PE phase transition: close the open interval, open the next."""
        pe_index = pe.pe_index
        phase, start = self._open_phase[pe_index]
        if now > start:
            self._add_phase(pe_index, phase, start, now)
        self._open_phase[pe_index] = (new_phase, now)

    # -- request and line-fetch tables ---------------------------------------

    @staticmethod
    def _first(queue, present, absent):
        """Oldest record in *queue* with *present* set and *absent* not.

        FIFO matching: requests sharing a ``(pe, req_id, line_addr)``
        key target the same line, so they move through the same bank
        and back in issue order and the oldest un-annotated record is
        always the one the event belongs to.
        """
        if not queue:
            return None
        for record in queue:
            if absent in record:
                continue
            if present is not None and present not in record:
                continue
            return record
        return None

    def _request_record(self, pe, req_id, line_addr, present, absent):
        return self._first(self._inflight.get((pe, req_id, line_addr)),
                           present, absent)

    def _fetch_record(self, bank, line_addr, present, absent):
        return self._first(self._fetches.get((bank, line_addr)),
                           present, absent)

    # -- PE request events ---------------------------------------------------

    def pe_issue(self, pe, req_id, addr, now):
        pe = pe.pe_index
        seq = self._seq.get(pe, 0)
        self._seq[pe] = seq + 1
        self.requests_seen += 1
        self.recorder.record(now, "issue", f"pe{pe}", req_id)
        sampled = sample_hash(pe, seq) % self.config.sample_rate == 0
        record = {"pe": pe, "seq": seq, "req_id": req_id,
                  "issue": now, "sampled": sampled}
        if sampled:
            self.sampled += 1
            record["events"] = [[now, f"issue@pe{pe}"]]
        key = (pe, req_id, addr // LINE_BYTES)
        self._inflight.setdefault(key, deque()).append(record)

    def pe_retire(self, pe, req_id, addr, now):
        pe = pe.pe_index
        self.recorder.record(now, "retire", f"pe{pe}", req_id)
        key = (pe, req_id, addr // LINE_BYTES)
        queue = self._inflight.get(key)
        if not queue:
            return  # issued before attach, or a fault mutated the id
        record = queue.popleft()
        if not queue:
            del self._inflight[key]
        self.moms_latency[pe].record(now - record["issue"])
        if record["sampled"]:
            record["retire"] = now
            record["events"].append([now, f"retire@pe{pe}"])
            self.spans.append(record)

    # -- bank events ---------------------------------------------------------

    def _bank_outcome(self, outcome, bank, req_id, port, line_addr, now):
        if req_id is None:
            # Shared-level event serving a private bank's line fetch.
            fetch = self._fetch_record(f"private{port}", line_addr,
                                       None, "l2_outcome")
            if fetch is not None:
                fetch["l2_outcome"] = outcome
                fetch["l2_cycle"] = now
            return
        record = self._request_record(port, req_id, line_addr,
                                      None, "outcome")
        if record is None:
            return
        record["outcome"] = outcome
        record["outcome_cycle"] = now
        record["bank"] = bank
        record["line_addr"] = line_addr
        if record["sampled"]:
            record["events"].append([now, f"{outcome}@{bank}"])

    def bank_hit(self, bank, req_id, port, line_addr, now):
        bank = bank.name
        self.recorder.record(now, "hit", bank,
                             line_addr if req_id is None else req_id)
        self._bank_outcome("hit", bank, req_id, port, line_addr, now)

    def bank_merge(self, bank, req_id, port, line_addr, now):
        """Secondary miss: merged into the line's existing MSHR."""
        bank = bank.name
        self.recorder.record(now, "merge", bank,
                             line_addr if req_id is None else req_id)
        self._bank_outcome("secondary", bank, req_id, port, line_addr, now)

    def bank_alloc(self, bank, req_id, port, line_addr, now):
        """Primary miss: MSHR allocated, line fetch issued downstream."""
        bank = bank.name
        self.recorder.record(now, "alloc", bank, line_addr)
        self._fetches.setdefault((bank, line_addr), deque()).append(
            {"fetch_issue": now}
        )
        self._bank_outcome("primary", bank, req_id, port, line_addr, now)

    def bank_drain(self, bank, line_addr, now):
        """The line arrived; its MSHR's merged requests replay next."""
        fan_in = bank.mshrs.peek(line_addr).subentry_count
        bank = bank.name
        self.recorder.record(now, "drain", bank, line_addr)
        per_bank = self.fanin.setdefault(bank, {})
        per_bank[fan_in] = per_bank.get(fan_in, 0) + 1
        fetch = self._fetch_record(bank, line_addr, None, "drain_begin")
        if fetch is not None:
            self.miss_latency[bank].record(now - fetch["fetch_issue"])
            fetch["drain_begin"] = now
            fetch["fan_in"] = fan_in
            fetch["remaining"] = fan_in

    def bank_replay(self, bank, req_id, port, line_addr, now):
        bank = bank.name
        self.recorder.record(now, "replay", bank,
                             line_addr if req_id is None else req_id)
        fetch = self._fetch_record(bank, line_addr, "drain_begin", None)
        if fetch is not None:
            fetch["remaining"] -= 1
            if fetch["remaining"] <= 0:
                queue = self._fetches[(bank, line_addr)]
                queue.remove(fetch)
                if not queue:
                    del self._fetches[(bank, line_addr)]
        if req_id is None:
            # Shared-level fill dispatch towards a private bank: carry
            # the DRAM timing down into the private fetch record.
            target = self._fetch_record(f"private{port}", line_addr,
                                        "l2_outcome", "dram_accept")
            if target is not None and fetch is not None:
                for key in ("dram_accept", "dram_deliver", "dram_channel"):
                    if key in fetch:
                        target[key] = fetch[key]
            return
        record = self._request_record(port, req_id, line_addr,
                                      "outcome", "replay")
        if record is None:
            return
        record["replay"] = now
        if fetch is not None:
            for key in ("fetch_issue", "drain_begin", "fan_in",
                        "dram_accept", "dram_deliver", "dram_channel",
                        "l2_outcome", "l2_cycle"):
                if key in fetch:
                    record[key] = fetch[key]
        if record["sampled"]:
            record["events"].append([now, f"replay@{bank}"])

    # -- fabric and DRAM events ----------------------------------------------

    def xbar_hop(self, xbar, token, now):
        name = xbar.name
        req_id = getattr(token, "req_id", None)
        port = getattr(token, "port", 0)
        addr = getattr(token, "addr", None)
        is_response = hasattr(token, "data")
        self.recorder.record(now, "xbar", name,
                             addr if req_id is None else req_id)
        if addr is None:
            return
        line_addr = addr // LINE_BYTES
        if req_id is None:
            if is_response:
                fetch = self._fetch_record(f"private{port}", line_addr,
                                           "l2_outcome", "hop_fill")
                if fetch is not None:
                    fetch["hop_fill"] = now
            else:
                fetch = self._fetch_record(f"private{port}", line_addr,
                                           None, "l2_outcome")
                if fetch is not None:
                    fetch["hop_req"] = now
            return
        if is_response:
            record = self._request_record(port, req_id, line_addr,
                                          "outcome", "hop_resp")
            key, label = "hop_resp", "resp"
        else:
            record = self._request_record(port, req_id, line_addr,
                                          None, "outcome")
            key, label = "hop_req", "req"
        if record is None or key in record:
            return
        record[key] = now
        if record["sampled"]:
            record["events"].append([now, f"xbar[{label}]@{name}"])

    def dram_accept(self, channel, request, now):
        self.recorder.record(now, "dram_accept", channel.name, request.addr)
        owner = self._line_owner.get(request.respond_to)
        if owner is None:
            return  # burst/write traffic, not a MOMS line fetch
        fetch = self._fetch_record(owner, request.addr // LINE_BYTES,
                                   None, "dram_accept")
        if fetch is not None:
            fetch["dram_accept"] = now
            fetch["dram_channel"] = channel.name

    def dram_deliver(self, channel, respond_to, addr, issued_at, now):
        """A beat delivered; for a line fetch the last beat wins."""
        self.recorder.record(now, "dram_deliver", channel.name, addr)
        if issued_at >= 0:
            self.dram_latency[channel.name].record(now - issued_at)
        owner = self._line_owner.get(respond_to)
        if owner is None:
            return
        fetch = self._fetch_record(owner, addr // LINE_BYTES,
                                   "dram_accept", "drain_begin")
        if fetch is not None:
            fetch["dram_deliver"] = now

    # -- results -------------------------------------------------------------

    @property
    def cycles(self):
        end = self.end_cycle
        if end is None:
            return 0
        return end - self.start_cycle

    def _account_rows(self, accounts, reasons):
        rows = []
        for account in accounts.values():
            row = {"component": account.label}
            total = 0
            for reason in reasons:
                value = account.buckets.get(reason, 0)
                row[reason] = value
                total += value
            for reason, value in account.buckets.items():
                if reason not in reasons:
                    row[reason] = value
                    total += value
            row["total"] = total
            rows.append(row)
        return rows

    def pe_stall_table(self):
        """Per-PE cycle accounting; each row's total == run cycles."""
        return self._account_rows(self._pe_accounts, PE_REASONS)

    def bank_stall_table(self):
        """Per-bank cycle accounting; each row's total == run cycles."""
        return self._account_rows(self._bank_accounts, BANK_REASONS)

    def _bucket_totals(self, accounts):
        totals = {}
        for account in accounts.values():
            for reason, value in account.buckets.items():
                totals[reason] = totals.get(reason, 0) + value
        return totals

    def merged_latency(self, histograms):
        merged = LatencyHistogram()
        for histogram in histograms.values():
            merged.merge(histogram)
        return merged

    def mshr_timeline(self):
        """(cycle, total in-flight misses) pairs from the sampled gauges."""
        return [(row["cycle"], row["mshr_total"]) for row in self.samples]

    def summary(self):
        """Compact, JSON-safe digest for journal rows and reports."""
        mshr = [row["mshr_total"] for row in self.samples]
        bank_stats = [bank.stats for bank in self._banks]
        requests = sum(s.requests for s in bank_stats)
        hits = sum(s.cache_hits for s in bank_stats)
        secondary = sum(s.secondary_misses for s in bank_stats)
        primary = sum(s.primary_misses for s in bank_stats)
        dram_stats = [channel.stats for channel in self._dram]
        lines_single = sum(s.lines_single for s in dram_stats)
        lines_total = sum(s.lines_total for s in dram_stats)
        busy = sum(s.busy_cycles for s in dram_stats)
        beats = sum(s.total_beats for s in dram_stats)
        misses = self.merged_latency(self.miss_latency)
        phases = {"spans": len(self.phases),
                  "spans_dropped": self.phases_dropped}
        return TELEMETRY_SUMMARY.row(
            **phases,
            cycles=self.cycles,
            sample_interval=self.sample_interval,
            samples=len(self.samples),
            samples_dropped=self.samples_dropped,
            mshr_peak=max(mshr, default=0),
            # A run ends with every MSHR drained, so the miss residencies
            # sum the occupancy over every cycle, fast-forwarded ones
            # too: unlike the gauge rows (DESIGN 6.3), it is the
            # per-cycle mean whatever the schedule.
            mshr_mean=round(misses.sum / self.cycles, 2)
            if self.cycles else 0.0,
            pe_stalls=self._bucket_totals(self._pe_accounts),
            bank_stalls=self._bucket_totals(self._bank_accounts),
            cache={
                "requests": requests,
                "hits": hits,
                "secondary_misses": secondary,
                "primary_misses": primary,
                "no_dram_fraction": round(
                    (hits + secondary) / requests, 4) if requests else 0.0,
                "merge_rate": round(
                    secondary / (secondary + primary), 4
                ) if secondary + primary else 0.0,
            },
            moms_latency=self.merged_latency(self.moms_latency).compact(),
            miss_latency=misses.compact(),
            dram_latency=self.merged_latency(self.dram_latency).compact(),
            dram={
                "single_line_fraction": round(
                    lines_single / lines_total, 4) if lines_total else 0.0,
                "effective_bw_ratio": round(
                    beats / busy, 4) if busy else 1.0,
            },
        )

    def live_spans(self):
        """Sampled spans still in flight (not retired) at this cycle."""
        return sum(
            1
            for queue in self._inflight.values()
            for record in queue
            if record["sampled"]
        )

    def merge_fanin(self):
        """Per-bank {fan-in: drains} with deterministic key order."""
        return {
            bank: {
                str(fan_in): self.fanin[bank][fan_in]
                for fan_in in sorted(self.fanin[bank])
            }
            for bank in sorted(self.fanin)
        }

    def span_summary(self):
        """The sampled spans' aggregate, for run stats and the trace."""
        return SPAN_SUMMARY.row(
            sample_rate=self.config.sample_rate,
            requests_seen=self.requests_seen,
            spans_sampled=self.sampled,
            spans_completed=len(self.spans),
            spans_live=self.live_spans(),
            stages=analyze_spans(self.spans),
            merge_fanin=self.merge_fanin(),
            recorder={
                "depth": self.recorder.depth,
                "recorded": self.recorder.recorded,
            },
        )
