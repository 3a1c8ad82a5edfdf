"""Snapshot audit over every organization x algorithm object graph.

``audit_system`` pickles a live system and fails on any ``repro.*``
class missing from ``SNAPSHOT_REGISTRY``, but it only sees the object
graph it is handed.  Each case here therefore builds the fullest graph
a run can carry -- ledger checks, telemetry, spans, a fault plan and a
checkpointer -- and audits it twice: at construction, and mid-run
with requests in flight (the run is cut by its cycle budget, after
the checkpointer has written one real snapshot).
"""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import Checkpointer, audit_system
from repro.faults.plan import FaultPlan, Window
from repro.graph import web_graph
from repro.sim.engine import CycleLimitError
from repro.telemetry import TelemetryConfig
from repro.tracing import SpansConfig

ALGORITHMS = ("pagerank", "bfs", "sssp", "scc")
ORGANIZATIONS = ("shared", "private", "two-level", "traditional")
GRAPH = web_graph(300, 1500, seed=5)

# Every observer and hook class a fully instrumented run attaches.
INSTRUMENTATION = {"Checkpointer", "FaultPlan", "Probe", "SpanTracer",
                   "Telemetry", "TokenLedger"}


def _fullest_system(algorithm, organization, snapshot_path):
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
        checkpoint=Checkpointer(snapshot_path, interval=400),
    )


@pytest.mark.parametrize("organization", ORGANIZATIONS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_audit_at_build_and_mid_run(algorithm, organization, tmp_path):
    system = _fullest_system(algorithm, organization,
                             str(tmp_path / "mid.snap"))
    names = {cls.__name__ for cls in audit_system(system)}
    assert INSTRUMENTATION <= names, INSTRUMENTATION - names

    with pytest.raises(CycleLimitError):
        system.run(max_iterations=1, max_cycles_per_iteration=1000)
    assert system.checkpointer.writes >= 1
    assert system.ledger.in_flight() > 0
    names = {cls.__name__ for cls in audit_system(system)}
    assert INSTRUMENTATION <= names, INSTRUMENTATION - names
