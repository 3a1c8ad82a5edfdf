"""Span streams are deterministic and telemetry never perturbs.

Three contracts from DESIGN 6.8:

* the sampled span stream (``telemetry.spans``, every record equal) is
  identical whether or not banks sleep through hopeless MSHR retries
  (sampling depends only on schedule-determined (pe, seq)
  coordinates), and pinned by the SHA-256 of its canonical JSON, the
  stream the retired all-tick engine and scalar kernels produced too;
* that identity survives an active fault plan (a DRAM-spike plan
  shifts every timestamp, but shifts them identically either way);
* attaching telemetry changes nothing the model computes.
"""

import contextlib
import hashlib
import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults.plan import FaultPlan, install_faults
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from tests.sim.per_cycle import retry_every_cycle

GRAPH = web_graph(900, 4500, seed=11)

#: SHA-256 of each pinned run's span stream (:func:`_sha`); the demand
#: and all-tick engines under the vector and scalar kernels all
#: produced these streams before the latter three were retired.
PINNED_SHA = {
    "pagerank":
        "34228c97728aa8dc66eac71f2217d3ebefbcd5724dea43b6f2d072db2870949c",
    "bfs":
        "a9e1a70ab01c6e30cf738f80eef9c69564790c5a3d90e0af14166b5e905c63c0",
    "pagerank+dram":
        "9c62b0cc66dc4f9548091eeeb232b156e41fcd339cce87cb786068541f2c9818",
}


def _run(algorithm, observed=True, fault_plan=None):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, algorithm, config,
        telemetry=TelemetryConfig(sample_rate=8) if observed else None,
    )
    if fault_plan is not None:
        install_faults(system, fault_plan)
    result = system.run(max_iterations=2)
    return system, result


def _fingerprint(result):
    return {
        "cycles": result.cycles,
        "gteps": result.gteps,
        "edges": result.edges_processed,
        "hit_rate": result.hit_rate,
        "dram_bytes_read": result.dram_bytes_read,
        "values": result.values.tobytes(),
    }


def _sha(spans):
    """SHA-256 of the span records as canonical (key-sorted) JSON."""
    blob = json.dumps(spans, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class TestSpanStreamDeterminism:
    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
    def test_byte_identical_across_engines_and_kernels(self, algorithm):
        streams = {}
        for leg, schedule in (("sleeping", contextlib.nullcontext()),
                              ("per-cycle", retry_every_cycle())):
            with schedule:
                system, result = _run(algorithm)
            streams[leg] = (result.cycles, system.telemetry.spans)
        # Not vacuous: the stream carries actual sampled spans.
        assert len(streams["sleeping"][1]) > 10
        assert streams["sleeping"] == streams["per-cycle"]
        assert _sha(streams["sleeping"][1]) == PINNED_SHA[algorithm]

    def test_byte_identical_under_dram_fault_plan(self):
        system, _result = _run("pagerank",
                               fault_plan=FaultPlan.dram_plan(seed=1))
        assert len(system.telemetry.spans) > 10
        assert _sha(system.telemetry.spans) == PINNED_SHA["pagerank+dram"]

    def test_fault_plan_actually_shifts_the_stream(self):
        """The fault-plan test above must not be comparing no-op runs."""
        clean_sys, _ = _run("pagerank")
        faulty_sys, _ = _run(
            "pagerank", fault_plan=FaultPlan.dram_plan(seed=1),
        )
        assert clean_sys.telemetry.spans != faulty_sys.telemetry.spans


class TestTracerNeverPerturbs:
    def test_tracing_on_matches_off(self):
        _off_sys, off_res = _run("pagerank", observed=False)
        on_sys, on_res = _run("pagerank", observed=True)
        assert _fingerprint(on_res) == _fingerprint(off_res)
        # Not vacuous: the traced run actually collected spans.
        assert on_sys.telemetry.spans
        assert on_res.stats["spans"]["spans_completed"] > 0
