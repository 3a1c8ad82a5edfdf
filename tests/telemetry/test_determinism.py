"""Telemetry must observe, never perturb.

The collector hangs off ``is None``-gated hooks in the engine, PEs,
banks, and DRAM channels; these tests pin the contract that enabling
it changes *nothing* the model computes -- bit-identical cycles,
throughput, traffic, and result vectors -- and that the telemetry
itself matches what the all-tick reference engine (every component
ticked every cycle) recorded before it was retired.
"""

import hashlib
import json

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig

GRAPH = web_graph(900, 4500, seed=11)

#: SHA-256 of the JSON of the summary keys below, recorded from the
#: all-tick reference engine on this workload.
ALL_TICK_SUMMARY_KEYS = ("cycles", "pe_stalls", "bank_stalls", "mshr_peak",
                         "cache")
ALL_TICK_SUMMARY_SHA = (
    "0c6f46d6c301d46d54d4aa944c2f4dd19b9d720392c47b547a8749345c9d3d9d")


def _run(telemetry):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, "pagerank", config, telemetry=telemetry
    )
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


class TestTelemetryDeterminism:
    def test_telemetry_on_matches_off(self):
        off = _fingerprint(*_run(None))
        on_sys, on_res = _run(TelemetryConfig(sample_interval=64))
        assert _fingerprint(on_sys, on_res) == off
        # Not vacuous: the instrumented run actually collected data.
        assert on_sys.telemetry is not None
        assert on_sys.telemetry.summary()["samples"] > 0

    def test_telemetry_identical_across_engines(self):
        """The *telemetry* itself is engine-invariant where it must be.

        Stall accounting and occupancy peaks are functions of the
        simulated schedule, so the demand engine reproduces the
        all-tick engine's summary (19,708 cycles) bit for bit.
        """
        system, _ = _run(TelemetryConfig(sample_interval=64))
        summary = system.telemetry.summary()
        assert summary["cycles"] == 19708
        picked = {key: summary[key] for key in ALL_TICK_SUMMARY_KEYS}
        assert hashlib.sha256(json.dumps(picked, sort_keys=True).encode()
                              ).hexdigest() == ALL_TICK_SUMMARY_SHA
