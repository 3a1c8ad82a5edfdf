"""The span stream as the run's one timeline carries it: each sampled
request's PE slice holds its full span record, ``otherData`` holds the
span summary, and the validator rejects a trace that breaks either."""

import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.timeline import PID_PES, validate_trace, write_trace
from repro.telemetry import TelemetryConfig
from repro.telemetry.analyze import decompose
from repro.telemetry.collector import SPAN_SUMMARY

GRAPH = web_graph(900, 4500, seed=11)


@pytest.fixture(scope="module")
def traced():
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, "pagerank", config,
        telemetry=TelemetryConfig(sample_rate=8),
    )
    result = system.run(max_iterations=2)
    return system, result


@pytest.fixture
def trace(traced, tmp_path):
    """The run's trace: (path, parsed document)."""
    system, _ = traced
    path = tmp_path / "f.json"
    write_trace(path, system.telemetry)
    return path, json.loads(path.read_text())


def _request_slices(doc):
    """The PE request slices (the phase slices are ``cat`` phase)."""
    return [event for event in doc["traceEvents"]
            if event["ph"] == "X" and event["pid"] == PID_PES
            and event.get("cat") != "phase"]


def _rewrite(path, doc):
    path.write_text(json.dumps(doc))
    return path


class TestSpansJsonl:
    """The span records, as the PE request slices carry them."""

    def test_roundtrip_validates(self, traced, trace):
        system, _ = traced
        path, doc = trace
        validate_trace(path)
        records = {event["name"]: event["args"]
                   for event in _request_slices(doc)}
        assert len(records) == len(system.telemetry.spans) > 10
        for span in system.telemetry.spans:
            record = records[f"pe{span['pe']}#{span['seq']}"]
            for key, value in span.items():
                if key != "sampled":
                    assert record[key] == value, key
            assert record["stages"] == decompose(span)

    def test_stream_is_ascii_and_sorted(self, trace):
        path, doc = trace
        path.read_bytes().decode("ascii")  # raises on non-ascii
        records = [event["args"] for event in _request_slices(doc)]
        keys = [(r["issue"], r["pe"], r["seq"]) for r in records]
        assert keys == sorted(keys)
        # The sampling flag does not leak into the records.
        assert all("sampled" not in r for r in records)
        assert all("stages" in r and "events" in r for r in records)

    def test_validator_rejects_corruption(self, traced, trace, tmp_path,
                                          monkeypatch):
        system, _ = traced
        # A miss that lost its drain timestamp breaks the exact stage
        # accounting, which every summary checks.
        span = next(s for s in system.telemetry.spans if "drain_begin" in s)
        monkeypatch.delitem(span, "drain_begin")
        with pytest.raises(ValueError, match="stage sum"):
            system.telemetry.span_summary()

        path, doc = trace
        del doc["otherData"]["spans"]
        with pytest.raises(ValueError, match="span summary"):
            validate_trace(_rewrite(tmp_path / "nosummary.json", doc))


class TestFlowTrace:
    """Each sampled request is a chain of slices joined by one flow."""

    def test_roundtrip_validates(self, traced, tmp_path):
        system, _ = traced
        path = tmp_path / "f.json"
        write_trace(path, system.telemetry)
        counts = validate_trace(path)
        # One flow start and one finish per completed span.
        assert counts["s"] == len(system.telemetry.spans)
        assert counts["f"] == len(system.telemetry.spans)
        assert counts["X"] >= len(system.telemetry.spans)


class TestSpanSummary:
    """The span summary in ``otherData``, checked by ``validate_trace``
    through :data:`SPAN_SUMMARY`."""

    def test_roundtrip_validates(self, traced, trace):
        system, result = traced
        path, doc = trace
        validate_trace(path)
        summary = SPAN_SUMMARY.check(doc["otherData"]["spans"], path)
        assert summary == result.stats["spans"]
        assert summary["spans_completed"] == len(system.telemetry.spans)
        assert "_totals" in summary["stages"]

    def test_validator_rejects_missing_keys(self, trace, tmp_path):
        _path, doc = trace
        doc["otherData"]["spans"] = {"schema": SPAN_SUMMARY.version}
        with pytest.raises(ValueError, match="missing"):
            validate_trace(_rewrite(tmp_path / "bad.json", doc))

    @pytest.mark.parametrize(
        "key", ["spans_sampled", "spans_completed", "spans_live"])
    def test_validator_rejects_missing_span_count(self, trace, tmp_path,
                                                  key):
        _path, doc = trace
        del doc["otherData"]["spans"][key]
        with pytest.raises(ValueError, match=key):
            validate_trace(_rewrite(tmp_path / "bad.json", doc))
