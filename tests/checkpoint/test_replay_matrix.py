"""Snapshot completeness, checked by replaying the fullest systems.

A snapshot is the pickled system, so it is complete exactly when a run
resumed from it finishes as the uninterrupted run does.  Each case
builds the fullest object graph a run can carry -- ledger checks,
telemetry, spans, a fault plan and a checkpointer -- for one
organization x algorithm, runs one iteration straight, then runs it
again with a single snapshot at 60% of those cycles and replays that
snapshot.  State a class fails to pickle raises ``SnapshotError`` at
the write; state a class drops or mangles in pickling shows up as a
replay that diverges or stalls.
"""

import numpy as np
import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import (
    Checkpointer,
    load_snapshot,
    read_header,
    replay_snapshot,
)
from repro.faults.plan import FaultPlan, Window
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.tracing import SpansConfig

ALGORITHMS = ("pagerank", "bfs", "sssp", "scc")
ORGANIZATIONS = ("shared", "private", "two-level", "traditional")
GRAPH = web_graph(300, 1500, seed=5)


def _fullest_system(algorithm, organization, checkpoint=None):
    config = ArchitectureConfig(
        _design(2, 2, organization, algorithm, n_channels=2,
                private_cache_kib=16),
        **SCALED_DEFAULTS,
    )
    plan = FaultPlan(
        seed=3,
        dram_latency=Window(512, 128, phase=64),
        dram_extra_latency=40,
        backpressure=Window(256, 32, phase=16),
        mshr_full=Window(384, 48, phase=100),
    )
    return AcceleratorSystem(
        GRAPH, algorithm, config, checks=True, fault_plan=plan,
        telemetry=TelemetryConfig(sample_interval=64),
        spans=SpansConfig(sample_rate=4),
        checkpoint=checkpoint,
    )


@pytest.mark.parametrize("organization", ORGANIZATIONS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_replay_matches_straight_run(algorithm, organization, tmp_path):
    straight = _fullest_system(algorithm, organization).run(max_iterations=1)

    path = str(tmp_path / "mid.snap")
    interval = straight.cycles * 3 // 5
    checkpointed = _fullest_system(
        algorithm, organization, Checkpointer(path, interval=interval),
    ).run(max_iterations=1)
    assert checkpointed.cycles == straight.cycles
    header = read_header(path)
    assert header["ordinal"] == 1  # one snapshot, mid-run
    assert 0.4 <= header["cycle"] / straight.cycles <= 0.7

    restored, _ = load_snapshot(path)
    assert restored.ledger.in_flight() > 0
    assert restored.engine.watchdog is not None
    assert restored.fault_state is not None
    assert restored.checkpointer is restored.engine.checkpointer
    probe = restored.engine.probe
    assert probe.observers == (
        restored.ledger, restored.telemetry, restored.tracer,
    )
    assert all(pe._probe is probe for pe in restored.pes)

    replayed, _ = replay_snapshot(path)
    assert replayed.cycles == straight.cycles
    assert replayed.iterations == straight.iterations
    assert replayed.stats == straight.stats
    assert {"telemetry", "spans"} <= replayed.stats.keys()
    assert np.array_equal(replayed.values, straight.values)
