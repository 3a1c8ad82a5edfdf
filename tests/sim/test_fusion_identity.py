"""Fused macro-tick runs are bit-identical to per-cycle execution.

The contract (DESIGN.md Section 6.9): fusion may only change *how* the
engine advances time, never what the model computes -- same final
cycle count, same iteration count, same stats dict, same output
values, and the same byte-identical span stream -- across algorithms,
organizations, active fault plans, and a checkpoint/restore boundary
landing where a fused run would otherwise be in flight.

Every point here is a *structure-starved* point of the golden corpus
(tiny MSHR budget against a long-latency, deep-queued DRAM channel),
whose fingerprints were recorded per cycle with fusion disabled, so
fused retry/drain runs actually occur and are checked against the
per-cycle schedule.  Each fused leg asserts nonzero coverage, so the
suite cannot green-wash by silently never fusing.  The telemetry leg
checks that observed components keep declining fusion.
"""

import hashlib
import json

import pytest

from repro.accel.system import AcceleratorSystem
from repro.checkpoint import load_snapshot, read_header
from repro.core.bank import MomsBank
from repro.faults.plan import NAMED_PLANS
from repro.telemetry import TelemetryConfig
from repro.tracing import SpansConfig
from repro.tracing.export import spans_jsonl_bytes
from tests.golden.test_corpus import (
    CORPUS,
    _config,
    _graph,
    point_key,
    result_fingerprint,
)

ALGORITHMS = ("pagerank", "bfs", "sssp", "scc")
ORGANIZATIONS = ("shared", "private", "two-level", "traditional")

_CORPUS = json.loads(CORPUS.read_text())


def _build(algorithm, organization, **system_kwargs):
    return AcceleratorSystem(
        _graph(), algorithm, _config(organization, algorithm, "starved"),
        **system_kwargs,
    )


def _run(algorithm, organization, fusion_cap=None, **system_kwargs):
    system = _build(algorithm, organization, **system_kwargs)
    if fusion_cap is not None:
        system.engine._fusion_cap = fusion_cap
    return system, system.run(max_iterations=2)


def _assert_matches_corpus(result, algorithm, organization, plan=None):
    """The run reproduces the per-cycle (fusion-off) corpus point."""
    want = _CORPUS[point_key(algorithm, organization, plan, "starved")]
    got = result_fingerprint(result)
    for field in ("cycles", "iterations", "full", "values"):
        assert got[field] == want[field], field


class TestAlgorithmOrganizationMatrix:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fused_matches_unfused(self, algorithm, organization):
        system, result = _run(algorithm, organization)
        assert system.engine.fused_runs > 0, \
            "starved point stopped producing fused runs"
        _assert_matches_corpus(result, algorithm, organization)

    def test_bank_retry_spin_fuses_unobserved(self, monkeypatch):
        """The shared points fuse only PE runs; a private bank spins on
        its MSHR file, and with no probe or fault attached it must fuse
        that spin rather than decline."""
        fused_cycles = []
        kernel = MomsBank.step_n

        def counted(bank, engine, budget):
            m = kernel(bank, engine, budget)
            fused_cycles.append(m)
            return m

        monkeypatch.setattr(MomsBank, "step_n", counted)
        _, result = _run("pagerank", "private")
        assert sum(fused_cycles) > 0
        _assert_matches_corpus(result, "pagerank", "private")

    def test_integer_cap_matches_too(self):
        """A small fusion cap splits runs differently but must not
        change the model either."""
        system, result = _run("pagerank", "two-level", fusion_cap=8)
        assert system.engine.fused_runs > 0
        _assert_matches_corpus(result, "pagerank", "two-level")


class TestUnderFaultPlan:
    @pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
    def test_fused_matches_unfused(self, plan_name):
        """Fault hooks make the affected components decline fusion
        (their per-cycle injection sites must see every cycle), but
        the engine still fuses elsewhere and the model must not
        move."""
        _, result = _run("pagerank", "two-level",
                         fault_plan=NAMED_PLANS[plan_name]())
        _assert_matches_corpus(result, "pagerank", "two-level", plan_name)


class TestCheckpointAcrossFusedRun:
    def test_restore_resumes_fusing_bit_identically(self, tmp_path):
        """A checkpoint interval short enough to land inside the
        starved point's fused windows: the stability oracle clamps
        each run at the hook point, the snapshot is written on the
        real tick, and the resumed engine must re-enter fusion and
        finish bit-identical to the per-cycle straight run."""
        fused_system, fused = _run("pagerank", "shared")
        assert fused_system.engine.fused_runs > 0
        _assert_matches_corpus(fused, "pagerank", "shared")

        snap = str(tmp_path / "mid.snap")
        ck_system, checkpointed = _run(
            "pagerank", "shared", checkpoint=f"{snap}:2000",
        )
        assert ck_system.engine.fused_runs > 0
        _assert_matches_corpus(checkpointed, "pagerank", "shared")

        header = read_header(snap)
        assert 0 < header["cycle"] < fused.cycles  # genuinely mid-run
        resumed_system, _ = load_snapshot(snap)
        replayed = resumed_system.resume_run()
        # The snapshot carries the fusion cap, so the restored engine
        # must fuse again over the remaining cycles, not fall back to
        # per-cycle ticking.
        assert resumed_system.engine.fused_runs > 0
        _assert_matches_corpus(replayed, "pagerank", "shared")


class TestSpanStream:
    def test_span_stream_sha_unchanged(self):
        """A probed component declines fusion, so the sampled stream
        -- pinned by SHA-256 of the canonical JSONL bytes -- comes out
        byte-identical with fusion capped to zero, and the traced run
        reproduces the untraced corpus point."""

        def leg(fusion_cap):
            system, result = _run(
                "pagerank", "two-level", fusion_cap=fusion_cap,
                spans=SpansConfig(sample_rate=8),
            )
            assert result.stats.pop("spans")["spans_completed"] > 0
            sha = hashlib.sha256(
                spans_jsonl_bytes(system.tracer)).hexdigest()
            return result, sha

        fused, fused_sha = leg(None)
        per_cycle, per_cycle_sha = leg(0)
        assert fused_sha == per_cycle_sha
        _assert_matches_corpus(fused, "pagerank", "two-level")
        _assert_matches_corpus(per_cycle, "pagerank", "two-level")


class TestTelemetry:
    @pytest.mark.parametrize("point", ("bank-and-init",))
    def test_summary_unchanged_with_fusion_off(self, point):
        """Telemetry settles a stall account on every ``bank_tick`` and
        ``pe_tick``, so its summary is exact only while probed
        components decline fusion: with that decline it equals the
        fusion-off run's summary in everything but the engine's own
        fusion counters.  The point fuses bank retry spins and PE INIT
        tails when unobserved."""

        def leg(fusion_cap):
            telemetry = TelemetryConfig(sample_interval=64)
            system, _ = _run("pagerank", "private",
                             fusion_cap=fusion_cap, telemetry=telemetry)
            summary = system.telemetry.summary()
            summary.pop("fusion")
            return summary

        assert leg(None) == leg(0)
