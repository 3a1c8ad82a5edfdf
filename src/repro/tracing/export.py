"""Span exporters and the span-stream validator.

Two artifacts, both self-validated by ``python -m repro trace`` before
it exits:

* **Span JSONL** -- a versioned meta header line, then one canonical
  JSON object per sampled span.  The encoding is byte-deterministic:
  spans are sorted by ``(issue, pe, seq)``, keys are sorted, and the
  separators are fixed, so the determinism tests can literally
  ``bytes``-compare exports and pin them by SHA-256.
* **Span summary** -- exact per-stage percentiles and merge fan-in.

The request flows on the Perfetto timeline are drawn by
:mod:`repro.timeline`.
"""

import json

from repro.records import Record
from repro.tracing.analyze import decompose
from repro.tracing.spans import INTERNAL_KEYS, SPAN_SCHEMA_VERSION

_JSON = {"sort_keys": True, "separators": (",", ":")}

SPAN_HEADER = Record(
    "span meta header", "schema", SPAN_SCHEMA_VERSION,
    ("schema", "kind", "sample_rate", "requests_seen", "spans"),
    kind="spans")


def _public(span):
    """The exported view of a span: observations plus derived stages."""
    record = {
        key: value for key, value in span.items() if key not in INTERNAL_KEYS
    }
    record["stages"] = decompose(span)
    return record


def spans_jsonl_bytes(tracer):
    """The canonical span-stream encoding (used directly by tests)."""
    header = SPAN_HEADER.row(
        sample_rate=tracer.config.sample_rate,
        requests_seen=tracer.requests_seen,
        spans=len(tracer.spans),
    )
    lines = [json.dumps(header, **_JSON)]
    lines.extend(
        json.dumps(_public(span), **_JSON)
        for span in sorted(tracer.spans,
                           key=lambda s: (s["issue"], s["pe"], s["seq"]))
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
    header = SPAN_HEADER.check(json.loads(lines[0]), f"{path}:1")
    if header["spans"] != len(lines) - 1:
        raise ValueError(
            f"{path}: header says {header['spans']} spans, "
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


def write_span_summary(summary, path):
    with open(path, "w", encoding="ascii") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
