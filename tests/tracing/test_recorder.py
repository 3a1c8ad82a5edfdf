"""Flight recorder bounds and its embedding in stall reports."""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults.report import build_stall_report, format_stall_report
from repro.faults.watchdog import Watchdog, WatchdogError
from repro.graph import web_graph
from repro.telemetry import FlightRecorder, TelemetryConfig

GRAPH = web_graph(900, 4500, seed=11)


def _traced_system(**kwargs):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    return AcceleratorSystem(
        GRAPH, "pagerank", config,
        telemetry=TelemetryConfig(sample_rate=8), **kwargs,
    )


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(depth=4)
        for cycle in range(10):
            recorder.record(cycle, "issue", "pe0", cycle)
        assert recorder.recorded == 10
        assert len(recorder.events) == 4
        tail = recorder.tail()
        assert [e["cycle"] for e in tail] == [6, 7, 8, 9]
        assert [e["cycle"] for e in recorder.tail(2)] == [8, 9]

    def test_format_tail_lines(self):
        recorder = FlightRecorder(depth=4)
        recorder.record(123, "alloc", "private0", 42)
        (line,) = recorder.format_tail()
        assert "123" in line and "alloc" in line and "private0" in line

    def test_recorder_sees_every_event_not_just_sampled(self):
        system = _traced_system()
        system.run(max_iterations=1)
        telemetry = system.telemetry
        # Far more events than the sampled spans alone could produce.
        assert telemetry.recorder.recorded > 2 * telemetry.requests_seen
        assert len(telemetry.recorder.events) == telemetry.recorder.depth


class TestStallReportEmbedding:
    def test_stall_report_carries_the_tail(self):
        system = _traced_system()
        system.run(max_iterations=1)
        report = build_stall_report(system.engine, reason="forced")
        flight = report["flight_recorder"]
        assert flight["depth"] == system.telemetry.recorder.depth
        assert flight["recorded"] == system.telemetry.recorder.recorded
        assert len(flight["tail"]) == 32
        text = format_stall_report(report)
        assert "flight recorder (last 32 of" in text
        last = flight["tail"][-1]
        assert f"[{last['cycle']:>10}] {last['event']:<12}" in text

    def test_untraced_report_has_no_recorder_block(self):
        config = ArchitectureConfig(
            _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(GRAPH, "pagerank", config)
        system.run(max_iterations=1)
        report = build_stall_report(system.engine)
        assert report["flight_recorder"] is None
        assert "flight recorder" not in format_stall_report(report)

    def test_forced_watchdog_stall_embeds_the_tail(self):
        """A watchdog-raised stall report shows the recorder tail."""
        system = _traced_system()
        system.run(max_iterations=1)
        engine = system.engine
        watchdog = Watchdog(window=1000, min_ticks=0)
        watchdog.begin(engine)
        # Force the no-progress signature the watchdog looks for:
        # ticks advanced, token movement did not.
        engine.component_ticks += watchdog.min_ticks + 1000
        with pytest.raises(WatchdogError) as exc:
            watchdog.check(engine)
        report = exc.value.report
        assert report["flight_recorder"]["tail"]
        assert "flight recorder (last" in str(exc.value)

    def test_checked_telemetry_run_stall_embeds_the_tail(self):
        """A watchdog stall on a checked run whose only observer besides
        the ledger is telemetry embeds telemetry's recorder tail."""
        system = _traced_system(checks=True)
        system.run(max_iterations=1)
        engine = system.engine
        watchdog = engine.watchdog
        watchdog.begin(engine)
        engine.component_ticks += watchdog.min_ticks
        with pytest.raises(WatchdogError) as exc:
            watchdog.check(engine)
        flight = exc.value.report["flight_recorder"]
        recorder = system.telemetry.recorder
        assert flight["recorded"] == recorder.recorded > 0
        assert flight["tail"] == recorder.tail(32)
        assert "flight recorder (last 32 of" in str(exc.value)
