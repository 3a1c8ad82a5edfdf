"""Tests for the table renderer, geomean and telemetry summary line."""

import functools

import pytest

from repro.report import format_table, geomean, telemetry_summary_line


class TestFormatTable:
    def test_renders_aligned_columns(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bb", "value": 20.25}]
        text = format_table(rows, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.500" in text and "20.250" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_column_subset_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_missing_cells_render_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": "x"}]
        text = format_table(rows)
        assert "x" in text


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([3, 3, 3]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geomean([0.0, 2.0, 8.0]) == pytest.approx(4.0)

    def test_empty_is_zero(self):
        assert geomean([]) == 0.0
        assert geomean([0.0]) == 0.0


@functools.cache
def _telemetry_summary():
    from repro.accel.config import (
        ArchitectureConfig,
        SCALED_DEFAULTS,
        _design,
    )
    from repro.accel.system import AcceleratorSystem
    from repro.graph import web_graph
    from repro.telemetry import TelemetryConfig

    config = ArchitectureConfig(
        _design(2, 2, "two-level", "bfs", n_channels=2), **SCALED_DEFAULTS
    )
    system = AcceleratorSystem(
        web_graph(200, 1000, seed=2), "bfs", config,
        telemetry=TelemetryConfig(sample_interval=64),
    )
    system.run()
    return system.telemetry.summary()


class TestTelemetrySummaryLine:
    def test_reads_a_real_summary(self):
        summary = _telemetry_summary()
        line = telemetry_summary_line(summary)
        latency = summary["dram_latency"]
        assert f"mshr peak {summary['mshr_peak']} " in line
        assert f"{latency['p50']}/{latency['p99']} cycles" in line
        assert f"{summary['samples']} samples" in line

    @pytest.mark.parametrize("path", [
        ("mshr_peak",), ("cache", "merge_rate"), ("dram_latency", "p99"),
        ("dram", "effective_bw_ratio"), ("samples",),
    ])
    def test_renamed_key_raises(self, path):
        summary = dict(_telemetry_summary())
        parent = summary
        for key in path[:-1]:
            parent[key] = dict(parent[key])
            parent = parent[key]
        parent[path[-1] + "_renamed"] = parent.pop(path[-1])
        with pytest.raises(KeyError, match=path[-1]):
            telemetry_summary_line(summary)

    def test_empty_summary_prints_nothing(self):
        assert telemetry_summary_line({}) == ""
