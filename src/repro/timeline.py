"""One Perfetto timeline per run: PE phases, bank and DRAM counters and
sampled request flows in one Chrome ``trace_event`` JSON file (load it
at https://ui.perfetto.dev; 1 simulated cycle = 1 us).  Three
processes hold the tracks:

* **PEs** -- per PE, a track of telemetry phase slices (init /
  pointers / stream / writeback), then lanes of its sampled requests
  from issue to retire;
* **MOMS banks** -- the ``mshr in flight`` and ``subentries live``
  counters (a series per bank), then per bank, lanes of each sampled
  request's bank residency from outcome to replay;
* **DRAM** -- the ``dram queue depth`` and ``dram bandwidth B/cycle``
  counters (a series per channel), then per channel, lanes of each
  request's line fetch from accept to last beat.

Flow arrows (``s``/``t``/``f``) chain each request's PE, bank and DRAM
slices.  Perfetto needs the ``X`` slices of one track to nest, and a PE
keeps many requests in flight, so in ``(issue, pe, seq)`` order each
request slice takes the first lane of its PE, bank or channel whose
last slice ended before it starts.
"""

import json

from repro.tracing.analyze import decompose
from repro.tracing.spans import SPAN_SCHEMA_VERSION

PID_PES, PID_BANKS, PID_DRAM = 1, 2, 3
PROCESSES = {PID_PES: "PEs", PID_BANKS: "MOMS banks", PID_DRAM: "DRAM"}

# Gauge-row key ``<kind>.<owner>.<series>`` -> (pid, counter name).
_COUNTERS = {
    ("bank", "mshr"): (PID_BANKS, "mshr in flight"),
    ("bank", "subentries"): (PID_BANKS, "subentries live"),
    ("dram", "queue"): (PID_DRAM, "dram queue depth"),
    ("dram", "bw_bytes_per_cycle"): (PID_DRAM, "dram bandwidth B/cycle"),
}
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
    events = []
    for row in telemetry.samples:
        values = {name: {} for _pid, name in _COUNTERS.values()}
        values["mshr in flight"]["total"] = row.get("mshr_total", 0)
        values["subentries live"]["total"] = row.get("subentries_total", 0)
        for key, value in row.items():
            kind, _, rest = key.partition(".")
            owner, _, series = rest.partition(".")
            counter = _COUNTERS.get((kind, series))
            if counter is not None:
                values[counter[1]][owner] = value
        for pid, name in _COUNTERS.values():
            if values[name]:
                events.append({"ph": "C", "pid": pid, "tid": 0,
                               "name": name, "ts": row["cycle"],
                               "args": values[name]})
    return events


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
        pe_track = hop(events, "s", flow_id, PID_PES, span["pe"], name,
                       span["issue"], span["retire"],
                       {"outcome": span.get("outcome", "?"),
                        "stages": decompose(span)})
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


def write_trace(path, telemetry=None, tracer=None):
    """Write one run's timeline to *path*; returns the event count.

    *telemetry* contributes the PE phases and the counters, *tracer*
    the request slices and flows; either may be ``None``.
    """
    events = []
    other = {"source": "repro"}
    if telemetry is not None:
        events += _phase_events(telemetry) + _counter_events(telemetry)
        other.update(start_cycle=telemetry.start_cycle,
                     end_cycle=telemetry.end_cycle)
    if tracer is not None:
        events += _request_events(tracer)
        other.update(schema=SPAN_SCHEMA_VERSION,
                     sample_rate=tracer.config.sample_rate)
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
    """Check a trace file's events, flows (``s ... f``) and slice
    nesting (no partial overlap on a ``(pid, tid)`` track).

    Raises ``ValueError`` on the first violation; returns the event
    count per phase type on success.
    """
    with open(path, encoding="ascii") as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list) or not events:
        raise ValueError(f"{path}: traceEvents must be a non-empty list")
    counts, flows, slices = {}, {}, {}
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
    return counts
