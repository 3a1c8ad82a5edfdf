"""Runtime pins for every versioned record the simulator writes.

Each record embeds a schema version that tolerant readers key their
compatibility decisions on.  For every record this test takes a real
row from one small run and asserts two things:

* the embedded version equals the module constant, so a writer that
  keeps a literal after the constant is bumped fails here;
* ``(constant, sorted recursive key set)`` equals the pinned entry in
  :data:`PINS`, so a key added, renamed or dropped without a version
  bump fails here, and so does a bump that was not re-pinned.

Maps keyed by data (component kinds, abort reasons, stall buckets,
span stages, bank ids) are opaque: their keys are values, not schema.
Re-pin an entry only together with its version bump::

    PYTHONPATH=src python -m tests.golden.test_schema_pins
"""

import functools
import importlib
import json
import pickle
import tempfile

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.core.stats import EngineActivity
from repro.experiments.common import SweepFailure, SweepPolicy, run_points
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.tracing import SpansConfig
from repro.tracing.export import spans_jsonl_bytes


class Record:
    """Where a versioned record's version lives and which maps are opaque."""

    def __init__(self, constant, version_key, opaque=()):
        self.module, self.constant = constant.rsplit(".", 1)
        self.version_key = version_key
        self.opaque = frozenset(opaque)

    def current_constant(self):
        return getattr(importlib.import_module(self.module), self.constant)


RECORDS = {
    "engine-activity": Record(
        "repro.core.stats.ACTIVITY_SCHEMA_VERSION", "version",
        opaque=("by_kind", "fusion_abort_reasons"),
    ),
    "telemetry-summary": Record(
        "repro.telemetry.collector.TELEMETRY_SCHEMA_VERSION", "version",
        opaque=("fusion.abort_reasons", "pe_stalls", "bank_stalls"),
    ),
    "journal-row-ok": Record(
        "repro.experiments.common.JOURNAL_SCHEMA", "schema"),
    "journal-row-fail": Record(
        "repro.experiments.common.JOURNAL_SCHEMA", "schema"),
    "span-jsonl-header": Record(
        "repro.tracing.spans.SPAN_SCHEMA_VERSION", "schema"),
    "span-summary": Record(
        "repro.tracing.spans.SPAN_SCHEMA_VERSION", "schema",
        opaque=("stages", "merge_fanin"),
    ),
}

# name -> (version, sorted dotted key paths).
PINS = {
    "engine-activity": (3, [
        "all_tick_equivalent", "by_kind", "component_ticks",
        "component_wakes", "cycles_simulated", "cycles_skipped",
        "fused_cycles", "fused_runs", "fusion_abort_reasons",
        "mean_run_len", "runs", "version",
    ]),
    "journal-row-fail": (2, [
        "attempt", "error", "fingerprint", "index", "point", "schema",
        "status",
    ]),
    "journal-row-ok": (2, [
        "attempt", "fingerprint", "index", "payload", "point", "schema",
        "status",
    ]),
    "span-jsonl-header": (1, [
        "kind", "requests_seen", "sample_rate", "schema", "spans",
    ]),
    "span-summary": (1, [
        "merge_fanin", "recorder", "recorder.depth",
        "recorder.recorded", "requests_seen", "sample_rate", "schema",
        "spans_completed", "spans_live", "spans_sampled", "stages",
    ]),
    "telemetry-summary": (2, [
        "bank_stalls", "cache", "cache.hits", "cache.merge_rate",
        "cache.no_dram_fraction", "cache.primary_misses",
        "cache.requests", "cache.secondary_misses", "cycles", "dram",
        "dram.effective_bw_ratio", "dram.single_line_fraction",
        "dram_latency", "dram_latency.count", "dram_latency.max",
        "dram_latency.p50", "dram_latency.p99", "fusion",
        "fusion.abort_reasons", "fusion.fused_cycles",
        "fusion.fused_runs", "fusion.mean_run_len", "miss_latency",
        "miss_latency.count", "miss_latency.max", "miss_latency.p50",
        "miss_latency.p99", "moms_latency", "moms_latency.count",
        "moms_latency.max", "moms_latency.p50", "moms_latency.p99",
        "mshr_mean", "mshr_peak", "pe_stalls", "sample_interval",
        "samples", "samples_dropped", "spans", "spans_dropped",
        "version",
    ]),
}


def key_paths(row, opaque=frozenset(), prefix=""):
    """Sorted dotted paths of every key, descending into nested dicts."""
    paths = []
    for key, value in row.items():
        path = prefix + key
        paths.append(path)
        if isinstance(value, dict) and path not in opaque:
            paths.extend(key_paths(value, opaque, path + "."))
    return sorted(paths)


def pin_problems(name, row, constant):
    """Why *row* breaks its pin (empty when it holds)."""
    record = RECORDS[name]
    problems = []
    embedded = row.get(record.version_key)
    if embedded != constant:
        problems.append(
            f"{name}: row carries {record.version_key}={embedded!r} but "
            f"{record.constant} is {constant!r} (writer uses a literal?)"
        )
    actual = (constant, key_paths(row, record.opaque))
    pinned = PINS[name]
    if actual != pinned:
        added = sorted(set(actual[1]) - set(pinned[1]))
        removed = sorted(set(pinned[1]) - set(actual[1]))
        problems.append(
            f"{name}: (version, keys) drifted from the pin: version "
            f"{pinned[0]} -> {constant}, added {added}, removed "
            f"{removed}; bump {record.constant} and re-pin together"
        )
    return problems


def _double(x):
    return x * 2


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd point {x}")
    return x


def _journal_rows(path):
    run_points(_double, [2], jobs=1, policy=SweepPolicy(journal=path))
    with pytest.raises(SweepFailure):
        run_points(_fail_on_odd, [3], jobs=1,
                   policy=SweepPolicy(journal=path, backoff=0.01))
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    by_status = {row["status"]: row for row in rows}
    return by_status["ok"], by_status["fail"]


@functools.cache
def real_rows():
    """One real row per record, from one small instrumented run."""
    config = ArchitectureConfig(
        _design(2, 2, "two-level", "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        web_graph(300, 1500, seed=5), "pagerank", config,
        telemetry=TelemetryConfig(sample_interval=64),
        spans=SpansConfig(sample_rate=4),
    )
    system.run(max_iterations=1)
    header = json.loads(spans_jsonl_bytes(system.tracer).splitlines()[0])
    with tempfile.TemporaryDirectory() as scratch:
        ok_row, fail_row = _journal_rows(f"{scratch}/journal.jsonl")
    return {
        "engine-activity":
            EngineActivity.from_engine(system.engine).as_dict(),
        "telemetry-summary": system.telemetry.summary(),
        "journal-row-ok": ok_row,
        "journal-row-fail": fail_row,
        "span-jsonl-header": header,
        "span-summary": system.tracer.summary(),
    }


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_real_row_matches_its_pin(name):
    row = real_rows()[name]
    assert pin_problems(name, row, RECORDS[name].current_constant()) == []


def test_pins_cover_every_record():
    assert sorted(PINS) == sorted(RECORDS)


def test_key_added_without_bump_fails():
    row = pickle.loads(pickle.dumps(real_rows()["telemetry-summary"]))
    row["cache"]["evictions"] = 0
    constant = RECORDS["telemetry-summary"].current_constant()
    (problem,) = pin_problems("telemetry-summary", row, constant)
    assert "cache.evictions" in problem


def test_bumped_constant_with_literal_writer_fails():
    row = real_rows()["engine-activity"]
    constant = RECORDS["engine-activity"].current_constant()
    problems = pin_problems("engine-activity", row, constant + 1)
    assert len(problems) == 2
    assert "literal" in problems[0]
    assert "re-pin" in problems[1]


if __name__ == "__main__":
    import textwrap

    rows = real_rows()
    print("PINS = {")
    for name in sorted(RECORDS):
        record = RECORDS[name]
        keys = " ".join(
            f"{json.dumps(key)}," for key in
            key_paths(rows[name], record.opaque))
        print(f"    {json.dumps(name)}: ({record.current_constant()}, [")
        print(textwrap.fill(keys, 72, initial_indent=" " * 8,
                            subsequent_indent=" " * 8))
        print("    ]),")
    print("}")
