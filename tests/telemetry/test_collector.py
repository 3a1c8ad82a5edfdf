"""Acceptance tests for the telemetry collector on a real run.

Pins the ISSUE acceptance criteria: the stall-attribution table sums
exactly to ``cycles x PEs`` (and per bank), the MSHR-occupancy
timeline is non-empty with a sensible peak, the latency histograms
carry real data, and the summary exposes the cache hit / primary-miss
/ secondary-miss breakdown and the DRAM burst-vs-single split.
"""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import LatencyHistogram, TelemetryConfig, collector
from repro.telemetry.collector import BANK_REASONS, PE_REASONS
from repro.tracing import SpansConfig


@pytest.fixture(scope="module")
def traced_run():
    graph = web_graph(900, 4500, seed=5)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        graph, "pagerank", config,
        telemetry=TelemetryConfig(sample_interval=64),
    )
    result = system.run(max_iterations=2)
    return system, result


class TestStallAttribution:
    def test_pe_rows_sum_to_cycles(self, traced_run):
        system, result = traced_run
        table = system.telemetry.pe_stall_table()
        assert len(table) == len(system.pes)
        for row in table:
            assert row["total"] == result.cycles, row
            assert sum(row[r] for r in PE_REASONS) == result.cycles
        grand = sum(row["total"] for row in table)
        assert grand == result.cycles * len(system.pes)

    def test_bank_rows_sum_to_cycles(self, traced_run):
        system, result = traced_run
        for row in system.telemetry.bank_stall_table():
            assert row["total"] == result.cycles, row
            assert sum(row[r] for r in BANK_REASONS) == result.cycles

    def test_stalls_are_not_all_idle(self, traced_run):
        system, _ = traced_run
        stalls = system.telemetry.summary()["pe_stalls"]
        assert stalls["busy"] > 0
        assert stalls["waiting-on-mem"] > 0


class TestTimelines:
    def test_mshr_timeline_nonempty_with_real_peak(self, traced_run):
        system, _ = traced_run
        timeline = system.telemetry.mshr_timeline()
        assert timeline, "sampler produced no MSHR occupancy points"
        peak = max(v for _, v in timeline)
        mean = sum(v for _, v in timeline) / len(timeline)
        assert peak > 0
        assert peak >= mean
        summary = system.telemetry.summary()
        assert summary["mshr_peak"] == peak

    def test_mshr_mean_counts_every_cycle(self):
        """With a row on every simulated cycle, holding each row through
        the fast-forwarded cycles after it gives the per-cycle occupancy
        series; ``mshr_mean`` is its mean, from residencies alone."""
        graph = web_graph(300, 1500, seed=5)
        config = ArchitectureConfig(
            _design(2, 2, MOMS_TWO_LEVEL, "pagerank", n_channels=1),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(
            graph, "pagerank", config,
            telemetry=TelemetryConfig(sample_interval=1),
        )
        result = system.run(max_iterations=1)
        telemetry = system.telemetry
        rows = telemetry.samples
        assert system.engine.cycles_skipped > 0
        assert rows[0]["cycle"] == telemetry.start_cycle + 1
        ends = [row["cycle"] for row in rows[1:]] + [telemetry.end_cycle + 1]
        held = sum(row["mshr_total"] * (until - row["cycle"])
                   for row, until in zip(rows, ends))
        assert held > 0
        assert telemetry.summary()["mshr_mean"] == round(
            held / result.cycles, 2)

    def test_sample_cap_decimates(self, monkeypatch):
        """Past ``MAX_SAMPLES`` rows the sampler keeps every other row,
        doubles its interval and counts the rows it dropped."""
        monkeypatch.setattr(collector, "MAX_SAMPLES", 8)
        sample = collector.Telemetry.sample
        calls = []

        def recording_sample(telemetry, engine):
            before = (list(telemetry.samples), telemetry.sample_interval,
                      telemetry.samples_dropped)
            sample(telemetry, engine)
            calls.append((before, (list(telemetry.samples),
                                   telemetry.sample_interval,
                                   telemetry.samples_dropped)))

        monkeypatch.setattr(collector.Telemetry, "sample", recording_sample)
        graph = web_graph(300, 1500, seed=5)
        config = ArchitectureConfig(
            _design(2, 2, MOMS_TWO_LEVEL, "pagerank", n_channels=1),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(
            graph, "pagerank", config,
            telemetry=TelemetryConfig(sample_interval=1),
        )
        system.run(max_iterations=1)
        decimations = [(before, after) for before, after in calls
                       if len(after[0]) <= len(before[0])]
        assert len(decimations) >= 2
        for (rows, interval, dropped), (kept, new_interval,
                                        new_dropped) in decimations:
            assert len(rows) == 8
            assert len(kept) == 5
            assert kept[:-1] == rows[::2]
            assert new_interval == 2 * interval
            assert new_dropped == dropped + 4
        telemetry = system.telemetry
        assert telemetry.samples_dropped == len(calls) - len(telemetry.samples)
        assert telemetry.summary()["samples_dropped"] == \
            telemetry.samples_dropped

    def test_samples_cover_run_and_are_monotonic(self, traced_run):
        system, result = traced_run
        cycles = [row["cycle"] for row in system.telemetry.samples]
        assert cycles == sorted(cycles)
        assert len(cycles) == len(set(cycles))
        assert cycles[-1] <= system.telemetry.end_cycle

    def test_sample_rows_expose_dram_and_pe_series(self, traced_run):
        system, _ = traced_run
        row = system.telemetry.samples[-1]
        assert "mshr_total" in row
        assert any(k.startswith("dram.") for k in row)
        assert any(k.startswith("pe.") for k in row)
        assert any(k.startswith("bank.") for k in row)


class TestLatencyHistograms:
    def test_log2_bucketing(self):
        hist = LatencyHistogram()
        for latency in (0, 1, 2, 3, 4, 255, 256):
            hist.record(latency)
        d = hist.as_dict()
        assert d["count"] == 7
        assert d["max"] == 256
        assert hist.percentile(0.5) >= 1

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(10)
        b.record(1000)
        a.merge(b)
        assert a.total == 2
        assert a.max == 1000

    def test_run_populates_all_families(self, traced_run):
        system, _ = traced_run
        summary = system.telemetry.summary()
        assert summary["moms_latency"]["count"] > 0
        assert summary["miss_latency"]["count"] > 0
        assert summary["dram_latency"]["count"] > 0
        assert summary["dram_latency"]["p99"] >= \
            summary["dram_latency"]["p50"]


    def test_moms_latency_pairs_each_retire_with_its_issue(self):
        """BFS reuses a req_id across lines and a hit may overtake a
        miss, so the histogram must pair issues and retires per line,
        as the span tracer does: with every request traced, it equals
        the histogram of the spans' own issue->retire latencies."""
        config = ArchitectureConfig(
            _design(4, 4, MOMS_TWO_LEVEL, "bfs", n_channels=2),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(
            web_graph(900, 4500, seed=11), "bfs", config,
            telemetry=TelemetryConfig(sample_interval=64),
            spans=SpansConfig(sample_rate=1),
        )
        system.run(max_iterations=2)
        telemetry = system.telemetry
        merged = telemetry.merged_latency(telemetry.moms_latency)
        expected = LatencyHistogram()
        for span in system.tracer.spans:
            expected.record(span["retire"] - span["issue"])
        assert expected.total > 1000
        assert merged.as_dict() == expected.as_dict()


class TestSummaryBreakdowns:
    def test_cache_breakdown(self, traced_run):
        system, _ = traced_run
        cache = system.telemetry.summary()["cache"]
        assert cache["requests"] > 0
        assert cache["hits"] + cache["primary_misses"] \
            + cache["secondary_misses"] <= cache["requests"]
        assert cache["primary_misses"] > 0

    def test_dram_split(self, traced_run):
        system, _ = traced_run
        dram = system.telemetry.summary()["dram"]
        assert 0.0 <= dram["single_line_fraction"] <= 1.0
        assert 0.0 < dram["effective_bw_ratio"] <= 1.0

    def test_summary_is_versioned(self, traced_run):
        from repro.telemetry import TELEMETRY_SCHEMA_VERSION

        system, _ = traced_run
        assert system.telemetry.summary()["version"] == \
            TELEMETRY_SCHEMA_VERSION

    def test_summary_rides_in_run_stats(self, traced_run):
        system, result = traced_run
        assert "telemetry" in result.stats
        assert result.stats["telemetry"]["cycles"] == result.cycles
