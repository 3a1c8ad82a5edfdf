"""The component probe: one gate per event, one fan-out to observers.

* **Conservation.**  A counting observer installed as the probe sees
  each event exactly as often as the model's own counters say it
  happened, so a missing or doubled probe call at any event site
  fails here.
* **Fan-out.**  Observers are called in attach order (ledger, then
  telemetry, then tracer); a single observer is bound directly.
* **Snapshots.**  A probed run that checkpoints mid-run and resumes
  reproduces the straight run's stats and span bytes.
"""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import Checkpointer, load_snapshot
from repro.fabric.design import MOMS_TRADITIONAL, MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.sim.probe import EVENTS, EventCounter, Probe
from repro.telemetry import TelemetryConfig
from repro.tracing import SpansConfig

GRAPH = web_graph(600, 3000, seed=9)


class BeatCounter(EventCounter):
    """Also totals the response beats ``dram_schedule`` announces."""

    def __init__(self):
        super().__init__()
        self.scheduled_beats = 0

    def dram_schedule(self, channel, addr, beats):
        super().dram_schedule(channel, addr, beats)
        self.scheduled_beats += beats


def _system(algorithm, organization, **kwargs):
    config = ArchitectureConfig(
        _design(4, 4, organization, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    return AcceleratorSystem(GRAPH, algorithm, config, **kwargs)


class TestConservation:
    @pytest.mark.parametrize("algorithm,organization", [
        ("pagerank", MOMS_TWO_LEVEL),
        ("pagerank", MOMS_TRADITIONAL),
        ("sssp", MOMS_TWO_LEVEL),
    ])
    def test_event_counts_match_model_counters(self, algorithm,
                                               organization):
        system = _system(algorithm, organization)
        counter = BeatCounter()
        system.install_probe([counter])
        system.run(max_iterations=2)
        counts = counter.counts
        pes = system.pes
        banks = system.hierarchy.banks
        channels = system.mem.channels

        # Every tick, and only a tick, fires its tick event.
        assert counts["pe_tick"] == sum(pe.ticks for pe in pes)
        assert counts["bank_tick"] == sum(bank.ticks for bank in banks)

        jobs = sum(pe.stats.jobs_completed for pe in pes)
        phases_per_job = 6 if system.spec.use_const else 5
        assert counts["pe_phase"] == jobs * phases_per_job

        reads = sum(pe.stats.moms_reads for pe in pes)
        assert reads > 0
        assert counts["pe_issue"] == counts["pe_retire"] == reads
        assert counts["pe_verify"] >= counts["pe_retire"]

        def bank_total(field):
            return sum(getattr(bank.stats, field) for bank in banks)

        assert counts["bank_hit"] == bank_total("cache_hits")
        assert counts["bank_merge"] == bank_total("secondary_misses")
        assert counts["bank_alloc"] == bank_total("primary_misses")
        assert counts["bank_drain"] == bank_total("lines_returned")
        assert counts["bank_replay"] == (
            bank_total("responses") - bank_total("cache_hits"))
        assert counts["xbar_hop"] == sum(
            xbar.transfers for xbar in system.hierarchy.crossbars)

        stats = [channel.stats for channel in channels]
        assert counts["dram_accept"] == sum(
            s.reads_single + s.reads_burst + s.writes for s in stats)
        announced = sum(s.lines_total + s.writes for s in stats)
        assert counter.scheduled_beats == announced
        assert counts["dram_deliver"] + counts["dram_evaporate"] \
            == announced


class _Recorder:
    """Observer defining two events, logging (name, event) calls."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def bank_alloc(self, *args):
        self.log.append((self.name, "bank_alloc"))

    def pe_issue(self, *args):
        self.log.append((self.name, "pe_issue"))


class _AllocOnly:
    def bank_alloc(self, *args):
        pass


class TestFanOut:
    def test_observers_called_in_attach_order(self):
        log = []
        probe = Probe([_Recorder("a", log), _AllocOnly(),
                       _Recorder("b", log)])
        probe.bank_alloc(None, 1, 0, 2, 3)
        probe.pe_issue(None, 1, 64, 3)
        assert log == [("a", "bank_alloc"), ("b", "bank_alloc"),
                       ("a", "pe_issue"), ("b", "pe_issue")]

    def test_single_observer_is_bound_directly(self):
        only = _AllocOnly()
        probe = Probe([only, _Recorder("a", [])])
        # bank_alloc has two definers -> closure; pe_issue has one.
        assert probe.pe_issue == probe.observers[1].pe_issue
        probe = Probe([only])
        assert probe.bank_alloc == only.bank_alloc
        probe.dram_deliver(None, None, 0, 0, 0)  # undefined: a no-op

    def test_system_fans_out_ledger_telemetry_tracer(self):
        system = _system("bfs", MOMS_TWO_LEVEL, checks=True,
                         telemetry=TelemetryConfig(sample_interval=64),
                         spans=SpansConfig(sample_rate=8))
        probe = system.engine.probe
        assert probe.observers == (system.ledger, system.telemetry,
                                   system.tracer)
        components = (*system.pes, *system.hierarchy.banks,
                      *system.hierarchy.crossbars, *system.mem.channels)
        assert all(c._probe is probe for c in components)

    def test_unobserved_system_has_no_probe(self):
        system = _system("bfs", MOMS_TWO_LEVEL)
        assert system.engine.probe is None
        assert all(pe._probe is None for pe in system.pes)

    def test_every_event_has_a_binding(self):
        counter = EventCounter()
        probe = Probe([counter])
        for event in EVENTS:
            getattr(probe, event)()
        assert counter.counts == dict.fromkeys(EVENTS, 1)


class TestSnapshot:
    def test_probed_resume_matches_straight_run(self, tmp_path):
        def build(**kwargs):
            return _system(
                "pagerank", MOMS_TWO_LEVEL, checks=True,
                telemetry=TelemetryConfig(sample_interval=64),
                spans=SpansConfig(sample_rate=8), **kwargs,
            )

        straight = build()
        reference = straight.run(max_iterations=2)
        reference_spans = straight.tracer.spans

        path = str(tmp_path / "probe.snap")
        checkpointed = build(checkpoint=Checkpointer(path, interval=5000))
        checkpointed.run(max_iterations=2)
        assert checkpointed.checkpointer.writes > 0

        restored, _header = load_snapshot(path)
        probe = restored.engine.probe
        assert probe.observers == (restored.ledger, restored.telemetry,
                                   restored.tracer)
        assert all(pe._probe is probe for pe in restored.pes)
        resumed = restored.resume_run()
        assert resumed.cycles == reference.cycles
        assert resumed.stats == reference.stats
        assert restored.tracer.spans == reference_spans
