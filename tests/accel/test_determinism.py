"""Determinism and engine-equivalence regression on a pinned workload.

Two guarantees the performance work must never break:

* the simulator is a deterministic function of its inputs -- two
  identical runs produce identical cycle counts and GTEPS;
* demand scheduling is a *wall-clock* optimization only -- on the same
  workload it reports the cycles, throughput, DRAM traffic and values
  the all-tick reference engine (every component ticked every cycle)
  recorded before it was retired, for both the cuckoo-MSHR (stateful
  retry) and associative (traditional) bank variants.
"""

import hashlib
import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TRADITIONAL, MOMS_TWO_LEVEL
from repro.graph import web_graph

GRAPH = web_graph(1200, 6000, seed=7)

#: (cycles, SHA-256 of the JSON fingerprint) recorded from the all-tick
#: reference engine before it was retired.
ALL_TICK = {
    MOMS_TWO_LEVEL: (
        16770,
        "8e2dcfb367190f5f437fabb91ac13ee89b603417ed0d88a03a9dcf755c197b9f"),
    MOMS_TRADITIONAL: (
        22555,
        "4345f8cce5654f0cd12d89bd206413f7e38d5feccf08b107ff547abbe3126034"),
}


def _run(organization):
    config = ArchitectureConfig(
        _design(4, 4, organization, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(GRAPH, "pagerank", config)
    result = system.run(max_iterations=2)
    return system, result


def _fingerprint(system, result):
    return {
        "cycles": result.cycles,
        "gteps": result.gteps,
        "edges": result.edges_processed,
        "hit_rate": result.hit_rate,
        "dram_bytes_read": result.dram_bytes_read,
        "dram_lines_single": result.stats["dram_lines_single"],
        "values": result.values.tobytes(),
    }


def _digest(fingerprint):
    values = hashlib.sha256(fingerprint["values"]).hexdigest()
    fingerprint = dict(fingerprint, values=values)
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        prints = [
            _fingerprint(*_run(MOMS_TWO_LEVEL))
            for _ in range(2)
        ]
        assert prints[0] == prints[1]

    @pytest.mark.parametrize("organization", [
        MOMS_TWO_LEVEL, MOMS_TRADITIONAL,
    ])
    def test_demand_engine_matches_legacy(self, organization):
        system, result = _run(organization)
        cycles, digest = ALL_TICK[organization]
        assert result.cycles == cycles
        assert _digest(_fingerprint(system, result)) == digest
        # The equivalence is not vacuous: the demand engine must have
        # actually skipped ticks the all-tick engine executed.
        engine = system.engine
        assert engine.component_ticks < \
            engine.cycles_simulated * len(engine._components)
