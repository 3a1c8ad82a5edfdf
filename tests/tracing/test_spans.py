"""Span structure, sampling, stage accounting, and merge fan-ins."""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_SHARED, MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.telemetry.analyze import (
    QUEUEING_STAGES,
    SERVICE_STAGES,
    STAGE_ORDER,
    analyze_spans,
    decompose,
    percentile,
)
from repro.telemetry.collector import sample_hash

GRAPH = web_graph(900, 4500, seed=11)


def _run(organization=MOMS_TWO_LEVEL, algorithm="pagerank", rate=8):
    config = ArchitectureConfig(
        _design(4, 4, organization, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, algorithm, config,
        telemetry=TelemetryConfig(sample_rate=rate),
    )
    result = system.run(max_iterations=2)
    return system, result


@pytest.fixture(scope="module")
def traced():
    return _run()


@pytest.fixture(scope="module")
def traced_shared():
    return _run(organization=MOMS_SHARED)


class TestSampling:
    def test_exact_hash_sampling(self, traced):
        """Sampled count is exactly the hash predicate over (pe, seq)."""
        system, _ = traced
        telemetry = system.telemetry
        rate = telemetry.config.sample_rate
        expected = sum(
            1
            for pe, issued in telemetry._seq.items()
            for seq in range(issued)
            if sample_hash(pe, seq) % rate == 0
        )
        assert telemetry.sampled == expected
        assert telemetry.requests_seen == sum(telemetry._seq.values())
        assert 0 < telemetry.sampled < telemetry.requests_seen

    def test_all_sampled_spans_complete(self, traced):
        system, result = traced
        telemetry = system.telemetry
        assert telemetry.live_spans() == 0
        assert len(telemetry.spans) == telemetry.sampled
        summary = result.stats["spans"]
        assert summary["spans_completed"] == telemetry.sampled
        assert summary["spans_live"] == 0

    def test_rate_one_traces_everything(self):
        system, _ = _run(rate=1)
        telemetry = system.telemetry
        assert telemetry.sampled == telemetry.requests_seen
        assert len(telemetry.spans) == telemetry.requests_seen

    def test_config_validation(self):
        """Both sampling knobs share one rule, and the trace command
        refuses a value below 1 before it runs anything."""
        from repro.__main__ import main

        for knob, flag in (("sample_interval", "--interval"),
                           ("sample_rate", "--rate")):
            with pytest.raises(ValueError, match=knob):
                TelemetryConfig(**{knob: 0})
            assert main(["trace", flag, "0"]) == 2


class TestSpanStructure:
    def test_stage_sum_invariant(self, traced):
        """queue + miss_wait + drain + return == total, exactly."""
        system, _ = traced
        for span in system.telemetry.spans:
            stages = decompose(span)
            parts = sum(
                stages.get(stage, 0)
                for stage in ("queue", "miss_wait", "drain", "return")
            )
            assert parts == stages["total"], span
            assert all(d >= 0 for d in stages.values()), span

    def test_event_timeline_is_monotonic(self, traced):
        system, _ = traced
        for span in system.telemetry.spans:
            cycles = [cycle for cycle, _label in span["events"]]
            assert cycles == sorted(cycles), span
            assert span["events"][0][1].startswith("issue@")
            assert span["events"][-1][1].startswith("retire@")

    def test_misses_carry_the_miss_path(self, traced):
        system, _ = traced
        misses = [
            s for s in system.telemetry.spans
            if s.get("outcome") in ("primary", "secondary")
        ]
        assert misses
        for span in misses:
            assert span["replay"] >= span["drain_begin"]
            assert span["fan_in"] >= 1
            # DRAM correlation: every drained line was fetched.
            if "dram_accept" in span:
                assert span["dram_deliver"] >= span["dram_accept"]

    def test_hits_skip_the_miss_path(self, traced_shared):
        system, _ = traced_shared
        hits = [
            s for s in system.telemetry.spans if s.get("outcome") == "hit"
        ]
        assert hits  # the shared org does produce request-level hits
        for span in hits:
            assert "drain_begin" not in span
            stages = decompose(span)
            assert stages["queue"] + stages["return"] == stages["total"]


class TestMergeFanin:
    def test_fanin_accounts_for_every_drain(self, traced):
        system, _ = traced
        fanin = system.telemetry.merge_fanin()
        assert fanin  # misses happened
        for bank in system.hierarchy.banks:
            drains = bank.stats.lines_returned
            if not drains:
                continue
            distribution = fanin[bank.name]
            assert sum(distribution.values()) == drains
            # Replayed requests per bank == sum(fan_in * drains).
            replayed = sum(
                int(fan_in) * count
                for fan_in, count in distribution.items()
            )
            assert replayed == (
                bank.stats.primary_misses + bank.stats.secondary_misses
            )

    def test_merge_rate_in_run_stats(self, traced):
        system, result = traced
        rate = result.stats["mshr_merge_rate"]
        secondary = sum(
            b.stats.secondary_misses for b in system.hierarchy.banks
        )
        misses = secondary + sum(
            b.stats.primary_misses for b in system.hierarchy.banks
        )
        assert rate == round(secondary / misses, 4)
        by_bank = result.stats["mshr_merge_rate_by_bank"]
        assert set(by_bank) == {b.name for b in system.hierarchy.banks}

    def test_merge_rate_in_telemetry_summary(self):
        from repro.telemetry import TelemetryConfig

        config = ArchitectureConfig(
            _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(
            GRAPH, "pagerank", config,
            telemetry=TelemetryConfig(sample_interval=64),
        )
        system.run(max_iterations=2)
        summary = system.telemetry.summary()
        cache = summary["cache"]
        total = cache["secondary_misses"] + cache["primary_misses"]
        assert cache["merge_rate"] == round(
            cache["secondary_misses"] / total, 4
        )
        from repro.report import telemetry_summary_line

        assert "mshr merge rate" in telemetry_summary_line(summary)


class TestAnalyzer:
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 0.999) == 100
        assert percentile([], 0.5) == 0
        assert percentile([7], 0.999) == 7

    def test_analyze_spans_totals(self, traced):
        system, _ = traced
        stages = analyze_spans(system.telemetry.spans)
        totals = stages["_totals"]
        queueing = service = 0
        for span in system.telemetry.spans:
            for stage, duration in decompose(span).items():
                if stage in QUEUEING_STAGES:
                    queueing += duration
                elif stage in SERVICE_STAGES:
                    service += duration
        assert totals == {
            "queueing_cycles": queueing, "service_cycles": service
        }
        for stage in stages:
            if stage == "_totals":
                continue
            assert stage in STAGE_ORDER
            row = stages[stage]
            assert row["p50"] <= row["p99"] <= row["p999"] <= row["max"]
            assert row["count"] > 0
