"""Request-level causal tracing (see DESIGN.md Section 6.8).

Public surface: :class:`SpansConfig` / :class:`SpanTracer` /
:class:`FlightRecorder` (collection) and :func:`analyze_spans`
(critical-path decomposition; the summary's key table is
``repro.tracing.spans.SPAN_SUMMARY``).  The request flows, each with
its full span record, are drawn on the run's one Perfetto timeline by
:mod:`repro.timeline`.
"""

from repro.tracing.analyze import analyze_spans, decompose, percentile
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
]
