"""Request-level causal tracing (see DESIGN.md Section 6.8).

Public surface: :class:`SpansConfig` / :class:`SpanTracer` /
:class:`FlightRecorder` (collection), :func:`analyze_spans`
(critical-path decomposition), and the span JSONL / summary
exporters and the span-stream validator in :mod:`repro.tracing.export`
(the summary's key table is ``repro.tracing.spans.SPAN_SUMMARY``).  The
request flows are drawn on the run's one Perfetto timeline by
:mod:`repro.timeline`.
"""

from repro.tracing.analyze import analyze_spans, decompose, percentile
from repro.tracing.export import (
    spans_jsonl_bytes,
    validate_spans_jsonl,
    write_span_summary,
    write_spans_jsonl,
)
from repro.tracing.spans import (
    SPAN_SCHEMA_VERSION,
    FlightRecorder,
    SpanTracer,
    SpansConfig,
    sample_hash,
)

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "FlightRecorder",
    "SpanTracer",
    "SpansConfig",
    "analyze_spans",
    "decompose",
    "percentile",
    "sample_hash",
    "spans_jsonl_bytes",
    "validate_spans_jsonl",
    "write_span_summary",
    "write_spans_jsonl",
]
