"""A bank's slept hopeless retries are bit-identical to per-cycle retries.

When the cuckoo MSHR file proves that an insert cannot succeed until a
line returns, the bank sleeps and settles the retries it slept through
as one bulk commit on its next tick (DESIGN 6.1).  The per-cycle
reference (:func:`tests.sim.per_cycle.retry_every_cycle`) ticks every
one of those retries.  The two must agree on everything the model
computes -- cycles, iterations, every stat but the scheduler's own
counters, output values, the span records and telemetry's stall
tables, latency histograms and MSHR mean -- across algorithms,
organizations, fault plans and a checkpoint taken while a bank sleeps.

Every point is a *structure-starved* point of the golden corpus (tiny
MSHR budget against a long-latency, deep-queued DRAM channel).  The
private and two-level organizations sleep there, and their legs
assert that the sleeping run ticks less than the reference, so the
suite cannot pass by never sleeping.  The shared and traditional ones
never prove a retry hopeless and must match the reference outright.
"""

import contextlib
import json

import pytest

from repro.accel.system import AcceleratorSystem
from repro.checkpoint import Checkpointer, load_snapshot, read_header
from repro.core.bank import MomsBank
from repro.core.mshr import CuckooMshrFile
from repro.faults import InvariantViolation
from repro.faults.plan import NAMED_PLANS, FaultPlan
from repro.telemetry import TelemetryConfig
from repro.tracing import SpansConfig
from tests.golden.test_corpus import (
    CORPUS,
    _config,
    _graph,
    point_key,
    result_fingerprint,
)
from tests.sim.per_cycle import retry_every_cycle

ALGORITHMS = ("pagerank", "bfs", "sssp", "scc")
ORGANIZATIONS = ("shared", "private", "two-level", "traditional")
SLEEPING = ("private", "two-level")

#: Scheduler counters: the only stats a sleep may change.
SCHEDULER_KEYS = ("engine", "cycles_skipped")

_CORPUS = json.loads(CORPUS.read_text())


def _build(algorithm, organization, **system_kwargs):
    return AcceleratorSystem(
        _graph(), algorithm, _config(organization, algorithm, "starved"),
        **system_kwargs,
    )


def _run(algorithm, organization, **system_kwargs):
    system = _build(algorithm, organization, **system_kwargs)
    return system, system.run(max_iterations=2)


def _run_per_cycle(algorithm, organization, **system_kwargs):
    with retry_every_cycle():
        return _run(algorithm, organization, **system_kwargs)


def _count_settles(monkeypatch):
    """Record the retries each bank settles after a sleep."""
    slept = []
    settle = MomsBank._settle_spin

    def counted(bank, now):
        slept.append(now - bank._spin_since - 1)
        settle(bank, now)

    monkeypatch.setattr(MomsBank, "_settle_spin", counted)
    return slept


def _assert_matches_corpus(result, algorithm, organization, plan=None):
    want = _CORPUS[point_key(algorithm, organization, plan, "starved")]
    got = result_fingerprint(result)
    for field in ("cycles", "iterations", "full", "values"):
        assert got[field] == want[field], field


def _assert_same_model(slept, per_cycle, sleeps):
    """*slept* computes what *per_cycle* does, ticking less iff *sleeps*."""
    assert slept.cycles == per_cycle.cycles
    assert slept.iterations == per_cycle.iterations
    assert slept.values.tobytes() == per_cycle.values.tobytes()

    def model(stats):
        return {key: value for key, value in stats.items()
                if key not in SCHEDULER_KEYS}

    assert model(slept.stats) == model(per_cycle.stats)
    ticks = slept.stats["engine"]["component_ticks"]
    reference_ticks = per_cycle.stats["engine"]["component_ticks"]
    if sleeps:
        assert ticks < reference_ticks, "starved point stopped sleeping"
    else:
        assert slept.stats == per_cycle.stats


class TestAlgorithmOrganizationMatrix:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fused_matches_unfused(self, algorithm, organization):
        _, slept = _run(algorithm, organization)
        _, per_cycle = _run_per_cycle(algorithm, organization)
        _assert_matches_corpus(slept, algorithm, organization)
        _assert_same_model(slept, per_cycle, organization in SLEEPING)

    def test_bank_retry_spin_fuses_unobserved(self, monkeypatch):
        """A private bank spins on its MSHR file; with no probe or fault
        attached it must sleep through the spin and settle it in bulk."""
        slept = _count_settles(monkeypatch)
        _, result = _run("pagerank", "private")
        assert sum(slept) > 0
        _assert_matches_corpus(result, "pagerank", "private")


class TestRespinInPlace:
    def test_woken_without_a_line_runs_no_retry(self, monkeypatch):
        """A sleeping bank woken while ``line_in`` is empty (a new
        request behind the head) commits its retry as one more settled
        failure: it runs neither the request path nor the dead-end walk,
        and the run still matches the corpus."""
        respins = []
        calls = []
        tick = MomsBank.tick
        handle = MomsBank._handle_request
        dead_end = CuckooMshrFile._dead_end

        def watched_tick(bank, engine):
            if bank._spin_since is not None and not bank.line_in._visible:
                respins.append(len(calls))
                tick(bank, engine)
                assert len(calls) == respins[-1], calls[respins[-1]:]
            else:
                tick(bank, engine)

        def watched_handle(bank):
            calls.append("_handle_request")
            return handle(bank)

        def watched_dead_end(mshrs, line_addr):
            calls.append("_dead_end")
            return dead_end(mshrs, line_addr)

        monkeypatch.setattr(MomsBank, "tick", watched_tick)
        monkeypatch.setattr(MomsBank, "_handle_request", watched_handle)
        monkeypatch.setattr(CuckooMshrFile, "_dead_end", watched_dead_end)
        _, result = _run("pagerank", "private")
        assert respins, "no sleeping bank was woken without a line"
        assert calls, "the watched paths never ran"
        _assert_matches_corpus(result, "pagerank", "private")


def _assert_plan_leg(algorithm, organization, plan_name):
    """A backpressure window wakes the sleeping banks as it throttles
    their ports; DRAM faults only move line returns; a forced-full MSHR
    window keeps every retry on a real tick."""
    kwargs = {"fault_plan": NAMED_PLANS[plan_name]()}
    _, slept = _run(algorithm, organization, **kwargs)
    kwargs = {"fault_plan": NAMED_PLANS[plan_name]()}
    _, per_cycle = _run_per_cycle(algorithm, organization, **kwargs)
    _assert_matches_corpus(slept, algorithm, organization, plan_name)
    _assert_same_model(slept, per_cycle, plan_name != "mshr")


class TestUnderFaultPlan:
    @pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
    def test_fused_matches_unfused(self, plan_name):
        _assert_plan_leg("pagerank", "two-level", plan_name)

    @pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
    @pytest.mark.parametrize("algorithm, organization", [
        (algorithm, organization)
        for algorithm in ALGORITHMS for organization in SLEEPING
        if (algorithm, organization) != ("pagerank", "two-level")
    ])
    def test_every_sleeping_point(self, algorithm, organization,
                                  plan_name):
        _assert_plan_leg(algorithm, organization, plan_name)

    def test_mutation_fault_sleeps_and_fails_alike(self, monkeypatch):
        """A bank's own fault hook corrupts a drained response, and a
        drain starts only on a line return, so a hooked bank sleeps as
        any other: it sleeps before the corruption, and the ledger
        flags the same token on the same cycle as in the reference."""
        slept = _count_settles(monkeypatch)

        def leg(run_context):
            system = _build("pagerank", "private", checks=True,
                            fault_plan=FaultPlan.mutation_plan(at=3000))
            with run_context(), pytest.raises(InvariantViolation) as error:
                system.run(max_iterations=2)
            assert system.fault_state.stats["mutations"] == 1
            return str(error.value), system.engine.now

        slept_leg = leg(contextlib.nullcontext)
        assert sum(slept) > 0
        slept.clear()
        assert leg(retry_every_cycle) == slept_leg
        assert slept == []


class SnapshotWhileAsleep(Checkpointer):
    """Writes one snapshot, at the first step that ends with a bank
    asleep in a hopeless retry (polled every step until then)."""

    def poll(self, engine):
        if not self.writes and any(
                bank._spin_since is not None
                for bank in self.system.hierarchy.banks):
            self.write()


class TestCheckpointAcrossFusedRun:
    def test_restore_resumes_fusing_bit_identically(self, tmp_path):
        """The snapshot carries the sleeping bank's ``_spin_since``, so
        the resumed bank settles the retries it slept through before
        and after the snapshot exactly once."""
        _, straight = _run("pagerank", "private")
        snap = tmp_path / "asleep.snap"
        ck_system, checkpointed = _run(
            "pagerank", "private",
            checkpoint=SnapshotWhileAsleep(snap, interval=1),
        )
        assert ck_system.checkpointer.writes == 1
        assert checkpointed.stats == straight.stats

        header = read_header(str(snap))
        assert 0 < header["cycle"] < straight.cycles  # genuinely mid-run
        resumed_system, _ = load_snapshot(str(snap))
        assert any(bank._spin_since is not None
                   for bank in resumed_system.hierarchy.banks)
        replayed = resumed_system.resume_run()
        assert replayed.stats == straight.stats
        _assert_matches_corpus(replayed, "pagerank", "private")


class TestSpanStream:
    def test_span_stream_sha_unchanged(self):
        """The sampled span records equal the per-cycle reference's,
        and the traced run reproduces the untraced corpus point."""

        def leg(run):
            system, result = run(
                "pagerank", "two-level", spans=SpansConfig(sample_rate=8),
            )
            assert result.stats.pop("spans")["spans_completed"] > 0
            return result, system.tracer.spans

        slept, slept_spans = leg(_run)
        per_cycle, per_cycle_spans = leg(_run_per_cycle)
        assert slept_spans == per_cycle_spans
        _assert_matches_corpus(slept, "pagerank", "two-level")
        _assert_same_model(slept, per_cycle, sleeps=True)


class TestTelemetry:
    #: Summary keys built from gauge rows, which fall only on simulated
    #: cycles (DESIGN 6.3): the cycles a bank sleeps through have none.
    #: ``mshr_mean`` is built from miss residencies, so it must match.
    GAUGE_KEYS = ("samples", "samples_dropped", "sample_interval",
                  "mshr_peak")

    @pytest.mark.parametrize("point", ("bank-and-init",))
    def test_summary_unchanged_with_fusion_off(self, point):
        """Telemetry settles a stall account on every ``bank_tick`` and
        attributes a slept gap to the stall that began it, so its stall
        tables, latency histograms and MSHR mean equal the per-cycle
        reference's."""

        def leg(run):
            telemetry = TelemetryConfig(sample_interval=64)
            system, _ = run("pagerank", "private", telemetry=telemetry)
            summary = system.telemetry.summary()
            assert summary["bank_stalls"]["mshr-full"] > 0
            return {key: value for key, value in summary.items()
                    if key not in self.GAUGE_KEYS}

        assert leg(_run) == leg(_run_per_cycle)


class TestObserversTickAlike:
    def test_observed_run_ticks_as_unobserved(self, monkeypatch):
        """Checks, telemetry and spans observe the bank without waking
        it, so an observed starved run makes exactly the unobserved
        run's tick calls, idle skips and wakes."""
        calls = {}

        def counting(cls):
            tick = cls.tick

            def counted(component, engine):
                calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
                tick(component, engine)

            monkeypatch.setattr(cls, "tick", counted)

        for cls in {type(c) for c in _build(
                "pagerank", "private").engine._components}:
            counting(cls)

        want = _CORPUS[point_key("pagerank", "private", None, "starved")]

        def leg(**kwargs):
            calls.clear()
            system, result = _run("pagerank", "private", **kwargs)
            got = result_fingerprint(result)
            assert (got["cycles"], got["values"]) \
                == (want["cycles"], want["values"])
            return dict(calls), system.engine.activity()

        unobserved = leg()
        assert unobserved[0]["MomsBank"] > 0
        observed = leg(checks=True,
                       telemetry=TelemetryConfig(sample_interval=64),
                       spans=SpansConfig(sample_rate=8))
        assert observed == unobserved
