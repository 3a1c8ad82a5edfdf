"""Opt-in cycle-resolved telemetry: timelines, histograms, stalls.

Everything here is off unless a run passes ``telemetry=`` to
:class:`repro.accel.system.AcceleratorSystem` (``python -m repro
trace`` does); the disabled hooks are single ``is None`` tests on
class attributes.  Every gauge series, the PE phases and the summary
tables are written to the run's one Perfetto timeline by
:mod:`repro.timeline`.
"""

from repro.telemetry.collector import (
    TELEMETRY_SCHEMA_VERSION,
    LatencyHistogram,
    Telemetry,
    TelemetryConfig,
)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "LatencyHistogram",
    "Telemetry",
    "TelemetryConfig",
]
