"""The run's one Perfetto timeline: what the writer emits passes the
validator, and each malformed shape is rejected."""

import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.timeline import PID_DRAM, PID_PES, validate_trace, write_trace
from repro.tracing import SpansConfig


@pytest.fixture(scope="module")
def system():
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        web_graph(900, 4500, seed=11), "pagerank", config,
        telemetry=TelemetryConfig(sample_interval=64),
        spans=SpansConfig(sample_rate=8),
    )
    system.run(max_iterations=2)
    return system


@pytest.fixture
def trace(system, tmp_path):
    path = tmp_path / "run.trace.json"
    events = write_trace(path, system.telemetry, system.tracer)
    return path, events


def _write(tmp_path, events):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path


def _slice(ts, dur, tid=1):
    return {"ph": "X", "name": "s", "ts": ts, "dur": dur,
            "pid": 1, "tid": tid}


class TestTimeline:
    def test_roundtrip_validates(self, system, trace):
        path, events = trace
        counts = validate_trace(path)
        assert events == sum(counts.values())
        spans = len(system.tracer.spans)
        assert spans > 10
        # One flow start and one finish per completed span; every
        # bank or DRAM hop is one "t" and one slice.
        assert counts["s"] == counts["f"] == spans
        phases = sum(1 for track, _pe, label, _s, _e
                     in system.telemetry.spans
                     if track == "pe" and label != "idle")
        assert phases > 0
        assert counts["X"] == phases + counts["s"] + counts["t"]
        # Per sample: 3 bank, 4 DRAM and 4 PE gauge families, and the
        # 3 run-wide totals.
        assert counts["C"] == 14 * len(system.telemetry.samples)

    def test_tracks_keep_requests_off_phases(self, trace):
        path, _events = trace
        doc = json.loads(path.read_text())
        names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in doc["traceEvents"] if e["name"] == "thread_name"}
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for event in slices:
            on_phase_track = names[event["pid"], event["tid"]].endswith(
                " phases")
            assert on_phase_track == (event.get("cat") == "phase")
        dram_tracks = {names[PID_DRAM, e["tid"]].split()[0]
                       for e in slices if e["pid"] == PID_DRAM}
        assert dram_tracks == {"dram0", "dram1"}
        assert any(e["pid"] == PID_PES and e.get("cat") == "phase"
                   for e in slices)

    def test_rejects_event_without_phase(self, tmp_path):
        with pytest.raises(ValueError, match="ph"):
            validate_trace(_write(tmp_path, [{"name": "orphan"}]))

    def test_rejects_span_with_negative_duration(self, tmp_path):
        with pytest.raises(ValueError, match="dur"):
            validate_trace(_write(tmp_path, [_slice(5, -1)]))

    def test_rejects_malformed_flow(self, trace, tmp_path):
        path, _events = trace
        events = json.loads(path.read_text())["traceEvents"]
        # Drop the first flow start: its flow now begins with "t"/"f".
        events.remove(next(e for e in events if e["ph"] == "s"))
        with pytest.raises(ValueError, match="malformed"):
            validate_trace(_write(tmp_path, events))

    def test_rejects_non_numeric_counter(self, tmp_path):
        counter = {"ph": "C", "name": "mshr in flight", "ts": 1,
                   "pid": 2, "tid": 0, "args": {"private0": "high"}}
        with pytest.raises(ValueError, match="non-numeric"):
            validate_trace(_write(tmp_path, [counter]))

    def test_rejects_crossing_slices_on_one_track(self, tmp_path):
        # Nested, adjacent, and crossing-but-on-two-tracks all pass.
        validate_trace(_write(tmp_path, [
            _slice(0, 10), _slice(2, 3), _slice(10, 4),
            _slice(5, 10, tid=2),
        ]))
        with pytest.raises(ValueError, match="partially overlaps"):
            validate_trace(_write(tmp_path, [_slice(0, 10),
                                             _slice(5, 10)]))
