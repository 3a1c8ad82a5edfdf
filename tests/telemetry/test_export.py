"""Telemetry on the run's one timeline: every gauge series is a counter,
the summary block rides in ``otherData``, and the validator rejects a
trace that breaks either.
"""

import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.timeline import validate_trace, write_trace


@pytest.fixture(scope="module")
def telemetry():
    graph = web_graph(600, 3000, seed=3)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "bfs", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        graph, "bfs", config,
        telemetry=TelemetryConfig(sample_interval=32),
    )
    system.run(max_iterations=3)
    return system.telemetry


@pytest.fixture
def trace(telemetry, tmp_path):
    """A telemetry-only trace of the run: (path, parsed document)."""
    path = tmp_path / "run.trace.json"
    write_trace(path, telemetry)
    return path, json.loads(path.read_text())


def _rewrite(path, doc):
    path.write_text(json.dumps(doc))
    return path


class TestChromeTrace:
    """A telemetry-only run writes a timeline of phases and counters."""

    def test_written_trace_validates(self, telemetry, tmp_path):
        path = tmp_path / "run.trace.json"
        events = write_trace(path, telemetry)
        counts = validate_trace(path)
        assert events == sum(counts.values())
        assert counts.get("C", 0) > 0, "no counter events exported"
        assert counts.get("X", 0) > 0, "no span events exported"

    def test_trace_is_plain_json_with_trace_events(self, telemetry,
                                                   tmp_path):
        path = tmp_path / "run.trace.json"
        write_trace(path, telemetry)
        with open(path) as fh:
            doc = json.load(fh)
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert "ph" in event and "name" in event


class TestTimelineJsonl:
    """The gauge timeline, as the trace's counters carry it."""

    def test_written_timeline_validates(self, telemetry, trace):
        path, doc = trace
        validate_trace(path)
        plotted = {
            (event["ts"], event["name"], owner): value
            for event in doc["traceEvents"] if event["ph"] == "C"
            for owner, value in event["args"].items()
        }
        # Gauge <kind>.<owner>.<series> is series <owner> of counter
        # "<kind> <series>"; a run-wide gauge is its own counter.
        expected = {}
        for row in telemetry.samples:
            for key, value in row.items():
                if key == "cycle":
                    continue
                if key.count(".") == 2:
                    kind, owner, series = key.split(".")
                    expected[row["cycle"], f"{kind} {series}", owner] = value
                else:
                    expected[row["cycle"], key, "value"] = value
        assert plotted == expected
        names = {name for _ts, name, _owner in plotted}
        assert {"bank line_in", "dram burst_lines", "dram single_lines",
                "pe edge_queue", "channel_tokens_total"} <= names

    def test_rejects_missing_meta_header(self, trace, tmp_path):
        _path, doc = trace
        del doc["otherData"]["telemetry"]
        with pytest.raises(ValueError, match="telemetry summary"):
            validate_trace(_rewrite(tmp_path / "bad.json", doc))

    @pytest.mark.parametrize("version", [1, 99])
    def test_rejects_other_schema_version(self, trace, tmp_path, version):
        _path, doc = trace
        doc["otherData"]["telemetry"]["version"] = version
        with pytest.raises(ValueError, match="version"):
            validate_trace(_rewrite(tmp_path / "bad.json", doc))

    def test_rejects_non_monotonic_cycles(self, trace, tmp_path):
        _path, doc = trace
        events = doc["traceEvents"]
        # Replay a counter value at a cycle its counter already passed.
        events.append(next(e for e in events if e["ph"] == "C"))
        with pytest.raises(ValueError, match="cycle"):
            validate_trace(_rewrite(tmp_path / "bad.json", doc))

    def test_rejects_unknown_series(self, telemetry, tmp_path, monkeypatch):
        """A gauge of a kind no process plots fails the write instead
        of being dropped from the timeline."""
        rogue = dict(telemetry.samples[-1], cycle=telemetry.end_cycle + 1)
        rogue["cache.0.depth"] = 1
        monkeypatch.setattr(telemetry, "samples",
                            telemetry.samples + [rogue])
        with pytest.raises(KeyError, match="cache"):
            write_trace(tmp_path / "bad.json", telemetry)


class TestCsvAndSummary:
    def test_summary_json_contents(self, telemetry, tmp_path):
        path = tmp_path / "run.trace.json"
        write_trace(path, telemetry, run={"graph": "unit"})
        other = json.loads(path.read_text())["otherData"]
        assert other["run"] == {"graph": "unit"}
        block = other["telemetry"]
        assert block["cycles"] == telemetry.cycles
        assert block["pe_stall_table"]
        assert block["bank_stall_table"]
        assert block["moms_latency_per_pe"]
        assert block["bank_structures"]
        assert block["dram_channels"]
