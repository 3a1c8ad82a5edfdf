"""Span exporters and their schema validators.

Two artifacts, both self-validated by the CLI before it exits:

* **Span JSONL** -- a versioned meta header line, then one canonical
  JSON object per sampled span.  The encoding is byte-deterministic:
  spans are sorted by ``(issue, pe, seq)``, keys are sorted, and the
  separators are fixed, so the determinism tests can literally
  ``bytes``-compare exports and pin them by SHA-256.
* **Chrome trace flow events** -- the ``trace_event`` format with
  ``ph: "s"/"t"/"f"`` flow arrows binding each span's PE slice to its
  bank and DRAM slices.  Open in https://ui.perfetto.dev: one track
  per PE, one per bank, one per DRAM channel; arrows follow sampled
  requests across them (1 simulated cycle = 1 us).
"""

import json

from repro.tracing.analyze import decompose
from repro.tracing.spans import INTERNAL_KEYS, SPAN_SCHEMA_VERSION

_JSON = {"sort_keys": True, "separators": (",", ":")}

_PID_PES = 1
_PID_BANKS = 2
_PID_DRAM = 3


def _public(span):
    """The exported view of a span: observations plus derived stages."""
    record = {
        key: value for key, value in span.items() if key not in INTERNAL_KEYS
    }
    record["stages"] = decompose(span)
    return record


def _ordered(spans):
    return sorted(spans, key=lambda s: (s["issue"], s["pe"], s["seq"]))


def spans_jsonl_bytes(tracer):
    """The canonical span-stream encoding (used directly by tests)."""
    header = {
        "schema": SPAN_SCHEMA_VERSION,
        "kind": "spans",
        "sample_rate": tracer.config.sample_rate,
        "requests_seen": tracer.requests_seen,
        "spans": len(tracer.spans),
    }
    lines = [json.dumps(header, **_JSON)]
    lines.extend(
        json.dumps(_public(span), **_JSON) for span in _ordered(tracer.spans)
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def write_spans_jsonl(tracer, path):
    with open(path, "wb") as handle:
        handle.write(spans_jsonl_bytes(tracer))
    return path


def validate_spans_jsonl(path):
    """Schema-check a span JSONL file; raises ValueError on problems."""
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty span stream")
    header = json.loads(lines[0])
    if header.get("kind") != "spans":
        raise ValueError(f"{path}: missing spans meta header")
    if header.get("schema") != SPAN_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {header.get('schema')!r} != "
            f"{SPAN_SCHEMA_VERSION}"
        )
    if header.get("spans") != len(lines) - 1:
        raise ValueError(
            f"{path}: header says {header.get('spans')} spans, "
            f"file has {len(lines) - 1}"
        )
    for index, line in enumerate(lines[1:], start=2):
        span = json.loads(line)
        for key in ("pe", "seq", "issue", "events", "stages"):
            if key not in span:
                raise ValueError(f"{path}:{index}: span missing {key!r}")
        stages = span["stages"]
        for stage, duration in stages.items():
            if duration < 0:
                raise ValueError(
                    f"{path}:{index}: negative {stage} ({duration})"
                )
        if "total" in stages:
            # Exact accounting: the on-request stages sum to total.
            parts = sum(
                stages.get(stage, 0)
                for stage in ("queue", "miss_wait", "drain", "return")
            )
            if parts != stages["total"]:
                raise ValueError(
                    f"{path}:{index}: stage sum {parts} != "
                    f"total {stages['total']}"
                )
    return {"meta": header, "spans": len(lines) - 1}


# -- Chrome trace flow events -----------------------------------------------


def _meta(pid, name):
    return {"ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": name}}


def _slice(pid, tid, name, start, end, args):
    return {"ph": "X", "pid": pid, "tid": tid, "name": name,
            "ts": start, "dur": max(1, end - start), "args": args}


def _flow(ph, flow_id, pid, tid, ts):
    event = {"ph": ph, "pid": pid, "tid": tid, "ts": ts,
             "name": "request", "cat": "moms", "id": flow_id}
    if ph == "f":
        event["bp"] = "e"  # bind to the enclosing slice's end
    return event


def write_flow_trace(tracer, path):
    """Chrome ``trace_event`` JSON with flow arrows per sampled span."""
    spans = [s for s in _ordered(tracer.spans) if "retire" in s]
    banks = sorted({s["bank"] for s in spans if "bank" in s})
    bank_tid = {bank: index for index, bank in enumerate(banks)}
    events = [
        _meta(_PID_PES, "PEs"),
        _meta(_PID_BANKS, "MOMS banks"),
        _meta(_PID_DRAM, "DRAM"),
    ]
    for tid, bank in enumerate(banks):
        events.append({"ph": "M", "pid": _PID_BANKS, "tid": tid,
                       "name": "thread_name", "args": {"name": bank}})
    for flow_id, span in enumerate(spans):
        name = f"pe{span['pe']}#{span['seq']}"
        stages = decompose(span)
        events.append(_slice(_PID_PES, span["pe"], name,
                             span["issue"], span["retire"],
                             {"outcome": span.get("outcome", "?"),
                              "stages": stages}))
        events.append(_flow("s", flow_id, _PID_PES, span["pe"],
                            span["issue"]))
        if "outcome_cycle" in span and "bank" in span:
            tid = bank_tid[span["bank"]]
            end = span.get("replay", span["outcome_cycle"] + 1)
            events.append(_slice(_PID_BANKS, tid, name,
                                 span["outcome_cycle"], end,
                                 {"outcome": span["outcome"],
                                  "line_addr": span.get("line_addr"),
                                  "fan_in": span.get("fan_in")}))
            events.append(_flow("t", flow_id, _PID_BANKS, tid,
                                span["outcome_cycle"]))
        if "dram_accept" in span:
            deliver = span.get("dram_deliver", span["dram_accept"] + 1)
            events.append(_slice(_PID_DRAM, 0, name,
                                 span["dram_accept"], deliver,
                                 {"line_addr": span.get("line_addr")}))
            events.append(_flow("t", flow_id, _PID_DRAM, 0,
                                span["dram_accept"]))
        events.append(_flow("f", flow_id, _PID_PES, span["pe"],
                            span["retire"]))
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"schema": SPAN_SCHEMA_VERSION,
                             "sample_rate": tracer.config.sample_rate}}
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, **_JSON)
    return path


def validate_flow_trace(path):
    """Schema-check a flow trace; raises ValueError on problems."""
    with open(path, "r", encoding="ascii") as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError(f"{path}: no traceEvents")
    flows = {}
    counts = {}
    for index, event in enumerate(events):
        ph = event.get("ph")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        for key in ("ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{path}: event {index} missing {key!r}")
        if ph == "X":
            if event.get("dur", -1) < 0:
                raise ValueError(f"{path}: event {index} bad dur")
        elif ph in ("s", "t", "f"):
            if "id" not in event:
                raise ValueError(f"{path}: flow event {index} missing id")
            flows.setdefault(event["id"], []).append(ph)
        else:
            raise ValueError(f"{path}: unexpected phase {ph!r}")
    for flow_id, phases in flows.items():
        if phases[0] != "s" or phases[-1] != "f" or len(phases) < 2:
            raise ValueError(
                f"{path}: flow {flow_id} malformed ({''.join(phases)})"
            )
    return counts


def write_span_summary(summary, path):
    with open(path, "w", encoding="ascii") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def validate_span_summary(path):
    with open(path, "r", encoding="ascii") as handle:
        summary = json.load(handle)
    for key in ("schema", "sample_rate", "requests_seen", "stages",
                "merge_fanin", "recorder"):
        if key not in summary:
            raise ValueError(f"{path}: summary missing {key!r}")
    if summary["schema"] != SPAN_SCHEMA_VERSION:
        raise ValueError(f"{path}: schema {summary['schema']!r}")
    return summary
