"""Export round-trips: every writer's output passes its validator,
and corrupted files are rejected with a useful error.
"""

import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import (
    TelemetryConfig,
    validate_timeline_jsonl,
    write_summary_json,
    write_timeline_csv,
    write_timeline_jsonl,
)
from repro.telemetry.export import TIMELINE_META
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
    def test_written_timeline_validates(self, telemetry, tmp_path):
        path = tmp_path / "run.timeline.jsonl"
        rows = write_timeline_jsonl(telemetry, path)
        info = validate_timeline_jsonl(path)
        assert info["samples"] == rows == len(telemetry.samples)
        assert "mshr_total" in info["meta"]["series"]

    def test_rejects_missing_meta_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "sample", "cycle": 1}) + "\n"
        )
        with pytest.raises(ValueError, match="meta"):
            validate_timeline_jsonl(path)

    @pytest.mark.parametrize("version", [TIMELINE_META.version + 97,
                                         TIMELINE_META.version - 1])
    def test_rejects_other_schema_version(self, telemetry, tmp_path,
                                          version):
        path = tmp_path / "bad.jsonl"
        write_timeline_jsonl(telemetry, path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["version"] = version
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="version"):
            validate_timeline_jsonl(path)

    def test_rejects_non_monotonic_cycles(self, telemetry, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_timeline_jsonl(telemetry, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1])  # replay an old cycle
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="cycle"):
            validate_timeline_jsonl(path)

    def test_rejects_unknown_series(self, telemetry, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_timeline_jsonl(telemetry, path)
        lines = path.read_text().splitlines()
        rogue = json.loads(lines[-1])
        rogue["cycle"] += 1
        rogue["not_a_series"] = 1
        lines.append(json.dumps(rogue))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="series"):
            validate_timeline_jsonl(path)


class TestCsvAndSummary:
    def test_csv_has_header_and_all_rows(self, telemetry, tmp_path):
        path = tmp_path / "run.timeline.csv"
        write_timeline_csv(telemetry, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("cycle,")
        assert len(lines) == 1 + len(telemetry.samples)

    def test_summary_json_contents(self, telemetry, tmp_path):
        path = tmp_path / "run.summary.json"
        write_summary_json(telemetry, path, extra={"graph": "unit"})
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["graph"] == "unit"
        assert doc["cycles"] == telemetry.cycles
        assert doc["pe_stall_table"]
        assert doc["bank_stall_table"]
        assert doc["moms_latency_per_pe"]
