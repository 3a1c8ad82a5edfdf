"""Opt-in run observation: timelines, histograms, stalls, request spans.

Everything here is off unless a run passes ``telemetry=`` to
:class:`repro.accel.system.AcceleratorSystem` (``python -m repro
trace`` does); the disabled hooks are single ``is None`` tests on
class attributes.  One :class:`Telemetry` collector per run keeps the
gauges, the stall accounts, the request table behind the latency
histograms and the sampled spans (decomposed by
:mod:`repro.telemetry.analyze`), and the flight recorder that stall
reports embed.  Every gauge series, the PE phases, the request flows
and the summaries are written to the run's one Perfetto timeline by
:mod:`repro.timeline`.
"""

from repro.telemetry.collector import (
    TELEMETRY_SCHEMA_VERSION,
    FlightRecorder,
    LatencyHistogram,
    Telemetry,
    TelemetryConfig,
)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "FlightRecorder",
    "LatencyHistogram",
    "Telemetry",
    "TelemetryConfig",
]
