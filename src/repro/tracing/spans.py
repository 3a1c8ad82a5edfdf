"""Sampled per-request span tracing plus an always-on flight recorder.

The aggregate telemetry of :mod:`repro.telemetry` says *that* p99 miss
latency is high; this module says *where* a request spent its cycles.
A :class:`SpanTracer` follows individual MOMS requests end to end --
PE issue, crossbar hop, bank accept, MSHR hit/merge/allocate, subentry
enqueue, DRAM queue/burst/response, replay, retire -- as timestamped
span records, and keeps the last N events of *every* request in a
bounded ring (:class:`FlightRecorder`) so stall and fault reports can
show what the machine was doing just before it wedged.

Three contracts, all pinned by tests:

* **Observe, never perturb.**  The tracer reads the components' probe
  events (:mod:`repro.sim.probe`); with no observer attached the
  off-path cost is one ``_probe is None`` test per event site
  (held <3% in ``benchmarks/test_probe_gates.py``).  With a tracer
  attached, cycle counts and results are bit-identical to an untraced
  run.
* **Deterministic sampling.**  Whether a request is traced depends
  only on ``splitmix64(mix(pe, seq))`` of its issuing PE and that
  PE's issue sequence number -- both functions of the simulated
  schedule, not of host state or engine internals -- so the stream
  does not depend on how the engine advances time.
* **Snapshot-safe.**  Tracer state is plain data (dicts, deques,
  ints) registered in the checkpoint ``SNAPSHOT_REGISTRY``; a traced
  run snapshots and resumes bit-identically.

Request identity: ``req_id`` values are *reused* (unweighted requests
use the destination offset, so two edges into the same vertex carry
the same id concurrently; weighted ones recycle a per-PE free list),
so spans are keyed ``(pe, per-PE issue seq)`` and in-flight matching
uses FIFO deques per ``(pe, req_id, line_addr)``.  The line address
is part of the key because responses are only issue-ordered *per
line*: a hit for one line can overtake a miss for another even when
both share a ``req_id``.  Line fetches are tracked for **every**
primary miss (not only sampled ones) because a sampled secondary miss
merges into whatever fetch its line already has.
"""

from collections import deque
from dataclasses import dataclass

from repro.faults.plan import _MASK64, _splitmix64
from repro.records import Record

# Also versions the span JSONL header (repro.tracing.export).
SPAN_SCHEMA_VERSION = 1
SPAN_SUMMARY = Record(
    "span summary", "schema", SPAN_SCHEMA_VERSION, (
        "schema", "sample_rate", "requests_seen", "spans_sampled",
        "spans_completed", "spans_live", "stages", "merge_fanin",
        "recorder",
    ))

LINE_BYTES = 64

# Span-record keys that are bookkeeping or timeline placement, not
# observations; stripped from the exported JSONL (see
# repro.tracing.export) so the canonical stream keeps its bytes.
INTERNAL_KEYS = ("sampled", "dram_channel")


def sample_hash(pe, seq):
    """The sampling hash for request *seq* issued by PE *pe*.

    Mixes the two coordinates into one 64-bit lane and runs the same
    splitmix64 finalizer the fault plans use.  Everything feeding it
    is schedule-determined, which is the whole determinism story.
    """
    _state, value = _splitmix64(((pe + 1) << 40) ^ seq)
    return value & _MASK64


@dataclass(frozen=True)
class SpansConfig:
    """Frozen tracer configuration.

    ``sample_rate`` traces 1 of every N requests per PE (1 = every
    request); ``recorder_depth`` bounds the flight-recorder ring.
    """

    sample_rate: int = 16
    recorder_depth: int = 256

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        if self.recorder_depth < 1:
            raise ValueError("recorder_depth must be >= 1")


class FlightRecorder:
    """Always-on bounded ring of the most recent tracer events.

    Unlike the sampled spans this sees *every* hook event, so its tail
    is the "what just happened" evidence embedded in watchdog stall
    reports, fault reports, and failed-replay output.  Events are
    stored as compact tuples and only formatted when a report is
    actually built.
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


class SpanTracer:
    """Per-request span collection from the components' probe events.

    The accelerator system attaches it (:meth:`attach`) and then lists
    it among the observers of the probe it installs on every PE, MOMS
    bank, crossbar, and DRAM channel, and as ``engine.probe`` (so stall
    reports can reach the flight recorder).  It is *event-driven*: the
    engine run loop never polls it.
    """

    def __init__(self, config=None):
        if config is None or config is True:
            config = SpansConfig()
        self.config = config
        self.recorder = FlightRecorder(config.recorder_depth)
        self.spans = []  # completed sampled spans
        self.requests_seen = 0
        self.sampled = 0
        self.fanin = {}  # bank name -> {merge fan-in -> drains}
        self._seq = {}  # pe -> requests issued so far
        self._inflight = {}  # (pe, req_id, line_addr) -> request deque
        self._fetches = {}  # (bank name, line_addr) -> deque of fetches
        self._line_owner = {}  # fill channel -> DRAM-facing bank name

    # -- wiring ------------------------------------------------------------

    def attach(self, system):
        """Learn which bank owns each line-fill channel (returns self)."""
        for bank in system.hierarchy.banks:
            self._line_owner[bank.line_in] = bank.name
        return self

    # -- matching helpers --------------------------------------------------

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

    # -- PE events ---------------------------------------------------------

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
            return  # e.g. a fault mutated the id in flight
        record = queue.popleft()
        if not queue:
            del self._inflight[key]
        if record["sampled"]:
            record["retire"] = now
            record["events"].append([now, f"retire@pe{pe}"])
            self.spans.append(record)

    # -- bank events -------------------------------------------------------

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
        """Primary miss: MSHR allocated, line fetch issued downstream.

        The fetch record is created for *every* primary miss -- later
        sampled secondaries merge into whichever fetch their line
        already has, sampled or not.
        """
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

    # -- fabric events -----------------------------------------------------

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

    # -- DRAM events -------------------------------------------------------

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
        """A line beat delivered; the last beat wins the timestamp."""
        self.recorder.record(now, "dram_deliver", channel.name, addr)
        owner = self._line_owner.get(respond_to)
        if owner is None:
            return
        fetch = self._fetch_record(owner, addr // LINE_BYTES,
                                   "dram_accept", "drain_begin")
        if fetch is not None:
            fetch["dram_deliver"] = now

    # -- results -----------------------------------------------------------

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

    def summary(self):
        """Compact aggregate for run stats / sweep journal rows."""
        from repro.tracing.analyze import analyze_spans

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
