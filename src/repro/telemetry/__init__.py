"""Opt-in cycle-resolved telemetry: timelines, histograms, stalls.

Everything here is off unless a run passes ``telemetry=`` to
:class:`repro.accel.system.AcceleratorSystem` (``python -m repro
trace`` does); the disabled hooks are single ``is None`` tests on
class attributes.  The counters and PE phases
are drawn on the run's one Perfetto timeline by :mod:`repro.timeline`.
"""

from repro.telemetry.collector import (
    TELEMETRY_SCHEMA_VERSION,
    LatencyHistogram,
    Telemetry,
    TelemetryConfig,
)
from repro.telemetry.export import (
    validate_timeline_jsonl,
    write_summary_json,
    write_timeline_csv,
    write_timeline_jsonl,
)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "LatencyHistogram",
    "Telemetry",
    "TelemetryConfig",
    "validate_timeline_jsonl",
    "write_summary_json",
    "write_timeline_csv",
    "write_timeline_jsonl",
]
