"""Span streams are deterministic and the tracer never perturbs.

Three contracts from DESIGN 6.8:

* the exported span JSONL is **byte-identical** whether or not banks
  sleep through hopeless MSHR retries (sampling depends only on
  schedule-determined (pe, seq) coordinates), and pinned by the
  SHA-256 that the retired all-tick engine and scalar kernels produced
  too;
* that identity survives an active fault plan (a DRAM-spike plan
  shifts every timestamp, but shifts them identically either way);
* attaching a tracer changes nothing the model computes.
"""

import contextlib
import hashlib

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults.plan import FaultPlan, install_faults
from repro.graph import web_graph
from repro.tracing import SpansConfig
from repro.tracing.export import spans_jsonl_bytes
from tests.sim.per_cycle import retry_every_cycle

GRAPH = web_graph(900, 4500, seed=11)

#: SHA-256 of the canonical span JSONL of each pinned run; the
#: demand and all-tick engines under the vector and scalar kernels all
#: produced these streams before the latter three were retired.
PINNED_SHA = {
    "pagerank":
        "ed47b4fd8316f502ac9b7b68a154f21db224311e0fcbb8ab900ed078808171ca",
    "bfs":
        "9678e8f1f549a262049d53f6ca4e74f6b012fa7ae8dc7f269d2c34dca0a24080",
    "pagerank+dram":
        "5cf0b6fca5d35ce184ad86c2eb82eb5d8880944118df7ad644d7026c8e266cd7",
}


def _run(algorithm, spans=True, fault_plan=None):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, algorithm, config,
        spans=SpansConfig(sample_rate=8) if spans else None,
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


def _sha(stream):
    return hashlib.sha256(stream).hexdigest()


class TestSpanStreamDeterminism:
    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
    def test_byte_identical_across_engines_and_kernels(self, algorithm):
        streams = {}
        for leg, schedule in (("sleeping", contextlib.nullcontext()),
                              ("per-cycle", retry_every_cycle())):
            with schedule:
                system, result = _run(algorithm)
            streams[leg] = (result.cycles,
                            spans_jsonl_bytes(system.tracer))
        # Not vacuous: the stream carries actual sampled spans.
        assert streams["sleeping"][1].count(b"\n") > 10
        assert streams["sleeping"] == streams["per-cycle"]
        assert _sha(streams["sleeping"][1]) == PINNED_SHA[algorithm]

    def test_byte_identical_under_dram_fault_plan(self):
        system, _result = _run("pagerank",
                               fault_plan=FaultPlan.dram_plan(seed=1))
        stream = spans_jsonl_bytes(system.tracer)
        assert stream.count(b"\n") > 10
        assert _sha(stream) == PINNED_SHA["pagerank+dram"]

    def test_fault_plan_actually_shifts_the_stream(self):
        """The fault-plan test above must not be comparing no-op runs."""
        clean_sys, _ = _run("pagerank")
        faulty_sys, _ = _run(
            "pagerank", fault_plan=FaultPlan.dram_plan(seed=1),
        )
        assert spans_jsonl_bytes(clean_sys.tracer) \
            != spans_jsonl_bytes(faulty_sys.tracer)


class TestTracerNeverPerturbs:
    def test_tracing_on_matches_off(self):
        _off_sys, off_res = _run("pagerank", spans=False)
        on_sys, on_res = _run("pagerank", spans=True)
        assert _fingerprint(on_res) == _fingerprint(off_res)
        # Not vacuous: the traced run actually collected spans.
        assert on_sys.tracer.spans
        assert on_res.stats["spans"]["spans_completed"] > 0
