"""One Perfetto timeline per run: every gauge, PE phase and sampled
request flow, plus the run's summaries, in one Chrome ``trace_event``
JSON file (load it at https://ui.perfetto.dev; 1 simulated cycle =
1 us).  It is the only file an observed run writes.  Four processes
hold the tracks:

* **PEs** -- the per-PE gauge counters; per PE, a track of telemetry
  phase slices (init / pointers / stream / writeback), then lanes of
  its sampled requests from issue to retire, each slice carrying the
  request's full span record (observations, ``events``, ``stages``);
* **MOMS banks** -- the per-bank gauge counters, then per bank, lanes
  of each sampled request's bank residency from outcome to replay;
* **DRAM** -- the per-channel gauge counters, then per channel, lanes
  of each request's line fetch from accept to last beat;
* **totals** -- the run-wide gauges (``mshr_total``, ...).

Flow arrows (``s``/``t``/``f``) chain each request's PE, bank and DRAM
slices.  Perfetto needs the ``X`` slices of one track to nest, and a PE
keeps many requests in flight, so in ``(issue, pe, seq)`` order each
request slice takes the first lane of its PE, bank or channel whose
last slice ended before it starts.

``otherData`` carries the run identity (``run``), the telemetry block
(``telemetry``: the :data:`TELEMETRY_SUMMARY` row plus stall tables,
per-component histograms, bank structures and DRAM channels) and the
span summary (``spans``, a :data:`SPAN_SUMMARY` row).
"""

import json

from repro.telemetry.collector import TELEMETRY_SUMMARY
from repro.tracing.analyze import decompose
from repro.tracing.spans import SPAN_SUMMARY

PID_PES, PID_BANKS, PID_DRAM, PID_TOTALS = 1, 2, 3, 4
PROCESSES = {PID_PES: "PEs", PID_BANKS: "MOMS banks", PID_DRAM: "DRAM",
             PID_TOTALS: "totals"}
_KIND_PIDS = {"pe": PID_PES, "bank": PID_BANKS, "dram": PID_DRAM}
_PHASES = ("M", "X", "C", "s", "t", "f")


def _phase_events(telemetry):
    return [
        {"ph": "X", "pid": PID_PES, "tid": (PID_PES, pe, -1),
         "name": label, "cat": "phase", "ts": start, "dur": end - start}
        for track, pe, label, start, end in telemetry.spans
        # Idle gaps read better as empty space on the track.
        if track == "pe" and label != "idle"
    ]


def _counter_events(telemetry):
    """Every gauge of every sample row as a counter value: gauge
    ``<kind>.<owner>.<series>`` is series *owner* of counter ``<kind>
    <series>`` in its kind's process, and a run-wide gauge such as
    ``mshr_total`` is series ``value`` of its own counter under
    ``totals``."""
    events = []
    for row in telemetry.samples:
        counters = {}
        for key, value in row.items():
            if key == "cycle":
                continue
            if key.count(".") == 2:
                kind, owner, series = key.split(".")
                counter = (_KIND_PIDS[kind], f"{kind} {series}")
            else:
                counter, owner = (PID_TOTALS, key), "value"
            counters.setdefault(counter, {})[owner] = value
        events += [{"ph": "C", "pid": pid, "tid": 0, "name": name,
                    "ts": row["cycle"], "args": args}
                   for (pid, name), args in sorted(counters.items())]
    return events


def _telemetry_block(telemetry):
    """``summary()`` plus the per-component tables behind it."""
    block = telemetry.summary()
    block["pe_stall_table"] = telemetry.pe_stall_table()
    block["bank_stall_table"] = telemetry.bank_stall_table()
    for key, histograms in (
            ("moms_latency_per_pe", telemetry.moms_latency),
            ("miss_latency_per_bank", telemetry.miss_latency),
            ("dram_latency_per_channel", telemetry.dram_latency)):
        block[key] = {str(owner): histogram.as_dict()
                      for owner, histogram in sorted(histograms.items())}
    block["bank_structures"] = {
        bank.name: {
            "mshr": bank.mshrs.stats.as_dict(),
            "subentries": bank.subentries.stats.as_dict(),
            "cache": bank.cache.stats.as_dict(),
        }
        for bank in telemetry.banks
    }
    block["dram_channels"] = {
        channel.name: channel.stats.as_dict()
        for channel in telemetry.dram_channels
    }
    return block


def _flow(ph, flow_id, track, ts):
    event = {"ph": ph, "pid": track[0], "tid": track, "ts": ts,
             "name": "request", "cat": "moms", "id": flow_id}
    if ph == "f":
        event["bp"] = "e"  # bind to the enclosing slice's end
    return event


def _request_events(tracer):
    lanes = {}  # (pid, owner) -> cycle each lane's last slice ends

    def hop(events, ph, flow_id, pid, owner, name, start, end, args):
        """One request slice on its owner's first free lane + its flow."""
        dur = max(1, end - start)
        ends = lanes.setdefault((pid, owner), [])
        lane = next((i for i, busy in enumerate(ends) if busy < start),
                    len(ends))
        ends[lane:lane + 1] = [start + dur]  # reuse, or open a lane
        track = (pid, owner, lane)
        events.append({"ph": "X", "pid": pid, "tid": track, "name": name,
                       "ts": start, "dur": dur, "args": args})
        events.append(_flow(ph, flow_id, track, start))
        return track

    events = []
    spans = sorted(tracer.spans,
                   key=lambda s: (s["issue"], s["pe"], s["seq"]))
    for flow_id, span in enumerate(spans):
        name = f"pe{span['pe']}#{span['seq']}"
        record = {key: value for key, value in span.items()
                  if key != "sampled"}
        record["stages"] = decompose(span)
        pe_track = hop(events, "s", flow_id, PID_PES, span["pe"], name,
                       span["issue"], span["retire"], record)
        if "outcome_cycle" in span and "bank" in span:
            hop(events, "t", flow_id, PID_BANKS, span["bank"], name,
                span["outcome_cycle"],
                span.get("replay", span["outcome_cycle"] + 1),
                {"outcome": span["outcome"],
                 "line_addr": span.get("line_addr"),
                 "fan_in": span.get("fan_in")})
        if "dram_accept" in span:
            hop(events, "t", flow_id, PID_DRAM, span["dram_channel"], name,
                span["dram_accept"],
                span.get("dram_deliver", span["dram_accept"] + 1),
                {"line_addr": span.get("line_addr")})
        events.append(_flow("f", flow_id, pe_track, span["retire"]))
    return events


def _name_tracks(events):
    """Number the ``(pid, owner, lane)`` tracks 1.. per process, in
    sorted order, and return their ``thread_name`` metadata events."""
    tids, last_tid, meta = {}, {}, []
    for track in sorted({e["tid"] for e in events if e["tid"] != 0}):
        pid, owner, lane = track
        tids[track] = last_tid[pid] = last_tid.get(pid, 0) + 1
        label = f"pe{owner}" if pid == PID_PES else owner
        name = f"{label} phases" if lane < 0 else f"{label} lane {lane}"
        meta.append({"ph": "M", "pid": pid, "tid": tids[track],
                     "name": "thread_name", "args": {"name": name}})
    for event in events:
        event["tid"] = tids.get(event["tid"], 0)
    return meta


def write_trace(path, telemetry=None, tracer=None, run=None):
    """Write one run's timeline to *path*; returns the event count.

    *telemetry* contributes the PE phases, the counters and the
    telemetry block, *tracer* the request slices, flows and span
    summary; either may be ``None``.  *run* (graph, algorithm, ...)
    is stored as the run identity.
    """
    events = []
    other = {"source": "repro"}
    if run:
        other["run"] = run
    if telemetry is not None:
        events += _phase_events(telemetry) + _counter_events(telemetry)
        other.update(start_cycle=telemetry.start_cycle,
                     end_cycle=telemetry.end_cycle,
                     telemetry=_telemetry_block(telemetry))
    if tracer is not None:
        events += _request_events(tracer)
        other["spans"] = tracer.summary()
    meta = [{"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": name}} for pid, name in PROCESSES.items()]
    meta += _name_tracks(events)
    payload = {"traceEvents": meta + events, "displayTimeUnit": "ms",
               "otherData": other}
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
    return len(payload["traceEvents"])


def _partial_overlap(slices):
    """The first ``(ts, dur)`` slice that crosses an enclosing one."""
    open_ends = []  # ends of the slices enclosing the cursor, innermost last
    for ts, dur in sorted(slices, key=lambda s: (s[0], -s[1])):
        while open_ends and open_ends[-1] <= ts:
            open_ends.pop()
        if open_ends and ts + dur > open_ends[-1]:
            return ts, dur
        open_ends.append(ts + dur)
    return None


def validate_trace(path):
    """Check a trace file's events, counters (cycles increase along
    each), flows (``s ... f``), slice nesting (no partial overlap on a
    ``(pid, tid)`` track) and summaries: counters need a
    :data:`TELEMETRY_SUMMARY` telemetry block and flows a
    :data:`SPAN_SUMMARY` span summary in ``otherData``.

    Raises ``ValueError`` on the first violation; returns the event
    count per phase type on success.
    """
    with open(path, encoding="ascii") as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list) or not events:
        raise ValueError(f"{path}: traceEvents must be a non-empty list")
    counts, flows, slices, counter_ts = {}, {}, {}, {}
    for index, event in enumerate(events):
        where = f"{path}: event {index}"
        ph = event.get("ph") if isinstance(event, dict) else None
        if ph not in _PHASES or "name" not in event:
            raise ValueError(f"{where} needs a name and a phase type 'ph' "
                             f"in {_PHASES}")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"{where} ({ph}) has non-numeric ts")
        if "pid" not in event or "tid" not in event:
            raise ValueError(f"{where} ({ph}) lacks pid/tid")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} (X) has invalid dur")
            slices.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], dur))
        elif ph == "C":
            args = event.get("args")
            if not args or not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                raise ValueError(f"{where} (C) has no or non-numeric args")
            counter = (event["pid"], event["name"])
            if event["ts"] <= counter_ts.get(counter, -1):
                raise ValueError(f"{where} (C) repeats or rewinds the "
                                 f"cycle of counter {event['name']!r}")
            counter_ts[counter] = event["ts"]
        elif "id" not in event:
            raise ValueError(f"{where} ({ph}) flow event has no id")
        else:
            flows.setdefault(event["id"], []).append(ph)
    for flow_id, phases in flows.items():
        if phases[0] != "s" or phases[-1] != "f" or len(phases) < 2:
            raise ValueError(
                f"{path}: flow {flow_id} malformed ({''.join(phases)})")
    for (pid, tid), track in slices.items():
        crossing = _partial_overlap(track)
        if crossing is not None:
            raise ValueError(f"{path}: slice at ts {crossing[0]} on pid "
                             f"{pid} tid {tid} partially overlaps another")
    other = payload.get("otherData") or {}
    for block, record, phase in (("telemetry", TELEMETRY_SUMMARY, "C"),
                                 ("spans", SPAN_SUMMARY, "s")):
        if block in other or phase in counts:
            record.check(other.get(block), f"{path}: otherData.{block}")
    return counts
