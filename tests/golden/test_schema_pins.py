"""Runtime pins for every versioned record the simulator writes.

Each record is declared once in ``src`` as a :class:`repro.records.Record`
key table (name, version key, version, ordered keys); :data:`RECORDS`
maps each pin to that table.  For every record this test takes a real
row from one small run and asserts two things:

* the embedded version equals the table's version, so a writer that
  bypasses its table with a stale literal fails here;
* ``(version, sorted recursive key set)`` equals the pinned entry in
  :data:`PINS`, so a key added, renamed or dropped without a version
  bump fails here, and so does a bump that was not re-pinned.

Maps keyed by data (component kinds, stall buckets, span stages, bank
ids) are opaque: their keys are values, not schema.
Re-pin an entry only together with its version bump::

    PYTHONPATH=src python -m tests.golden.test_schema_pins
"""

import functools
import json
import pickle
import tempfile
import textwrap

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.core.stats import ACTIVITY_RECORD, EngineActivity
from repro.experiments.common import (
    JOURNAL_FAIL,
    JOURNAL_OK,
    SweepFailure,
    SweepPolicy,
    run_points,
)
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.telemetry.collector import SPAN_SUMMARY, TELEMETRY_SUMMARY

# name -> (the record's key table in src, opaque map paths).
RECORDS = {
    "engine-activity": (
        ACTIVITY_RECORD, ("by_kind",)),
    "telemetry-summary": (
        TELEMETRY_SUMMARY, ("pe_stalls", "bank_stalls")),
    "journal-row-ok": (JOURNAL_OK, ()),
    "journal-row-fail": (JOURNAL_FAIL, ()),
    "span-summary": (SPAN_SUMMARY, ("stages", "merge_fanin")),
}

# name -> (version, sorted dotted key paths).
PINS = {
    "engine-activity": (4, [
        "all_tick_equivalent", "by_kind", "component_ticks",
        "component_wakes", "cycles_simulated", "cycles_skipped", "runs",
        "version",
    ]),
    "journal-row-fail": (2, [
        "attempt", "error", "fingerprint", "index", "point", "schema",
        "status",
    ]),
    "journal-row-ok": (2, [
        "attempt", "fingerprint", "index", "payload", "point", "schema",
        "status",
    ]),
    "span-summary": (1, [
        "merge_fanin", "recorder", "recorder.depth",
        "recorder.recorded", "requests_seen", "sample_rate", "schema",
        "spans_completed", "spans_live", "spans_sampled", "stages",
    ]),
    "telemetry-summary": (3, [
        "bank_stalls", "cache", "cache.hits", "cache.merge_rate",
        "cache.no_dram_fraction", "cache.primary_misses",
        "cache.requests", "cache.secondary_misses", "cycles", "dram",
        "dram.effective_bw_ratio", "dram.single_line_fraction",
        "dram_latency", "dram_latency.count", "dram_latency.max",
        "dram_latency.p50", "dram_latency.p99", "miss_latency",
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


def pin_problems(name, row, version):
    """Why *row* breaks its pin (empty when it holds)."""
    table, opaque = RECORDS[name]
    problems = []
    embedded = row.get(table.version_key)
    if embedded != version:
        problems.append(
            f"{name}: row carries {table.version_key}={embedded!r} but "
            f"its table is at {version!r} (writer stamps a literal "
            f"instead of using its table?)"
        )
    actual = (version, key_paths(row, frozenset(opaque)))
    pinned = PINS[name]
    if actual != pinned:
        added = sorted(set(actual[1]) - set(pinned[1]))
        removed = sorted(set(pinned[1]) - set(actual[1]))
        problems.append(
            f"{name}: (version, keys) drifted from the pin: version "
            f"{pinned[0]} -> {version}, added {added}, removed "
            f"{removed}; bump the {table.name} version and re-pin "
            f"together"
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
                   policy=SweepPolicy(journal=path))
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
        telemetry=TelemetryConfig(sample_interval=64, sample_rate=4),
    )
    system.run(max_iterations=1)
    with tempfile.TemporaryDirectory() as scratch:
        ok_row, fail_row = _journal_rows(f"{scratch}/journal.jsonl")
    return {
        "engine-activity":
            EngineActivity.from_engine(system.engine).as_dict(),
        "telemetry-summary": system.telemetry.summary(),
        "journal-row-ok": ok_row,
        "journal-row-fail": fail_row,
        "span-summary": system.telemetry.span_summary(),
    }


def pins_text():
    """The :data:`PINS` literal for the rows the code writes today."""
    rows = real_rows()
    lines = ["PINS = {"]
    for name in sorted(RECORDS):
        table, opaque = RECORDS[name]
        keys = " ".join(
            f"{json.dumps(key)}," for key in
            key_paths(rows[name], frozenset(opaque)))
        lines.append(f"    {json.dumps(name)}: ({table.version}, [")
        lines.append(textwrap.fill(keys, 72, initial_indent=" " * 8,
                                   subsequent_indent=" " * 8))
        lines.append("    ]),")
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_real_row_matches_its_pin(name):
    row = real_rows()[name]
    assert pin_problems(name, row, RECORDS[name][0].version) == []


def test_pins_cover_every_record():
    assert sorted(PINS) == sorted(RECORDS)


def test_key_added_without_bump_fails():
    row = pickle.loads(pickle.dumps(real_rows()["telemetry-summary"]))
    row["cache"]["evictions"] = 0
    version = RECORDS["telemetry-summary"][0].version
    (problem,) = pin_problems("telemetry-summary", row, version)
    assert "cache.evictions" in problem


def test_bumped_constant_with_literal_writer_fails():
    row = real_rows()["engine-activity"]
    version = RECORDS["engine-activity"][0].version
    problems = pin_problems("engine-activity", row, version + 1)
    assert len(problems) == 2
    assert "literal" in problems[0]
    assert "re-pin" in problems[1]


def test_repin_printer_reproduces_the_committed_pins():
    namespace = {}
    exec(pins_text(), namespace)
    assert namespace["PINS"] == PINS


if __name__ == "__main__":
    print(pins_text())
