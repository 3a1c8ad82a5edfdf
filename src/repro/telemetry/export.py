"""Time-series (JSONL / CSV) and summary export of a telemetry run.

The JSONL layout is one object per line:

* line 1 -- a ``{"type": "meta", ...}`` header carrying the schema
  version, the sampling interval, the run window, and the sorted list
  of series names;
* every further line -- a ``{"type": "sample", "cycle": N, ...}`` gauge
  row (missing keys mean the series did not exist yet at that cycle).

The CSV is the same matrix with one column per series, for spreadsheet
or pandas consumption without a JSON parser.
"""

import csv
import json

from repro.records import Record

# Versioned apart from the telemetry summary: the summary's v3 changed
# nothing in this header.
TIMELINE_META = Record(
    "timeline meta header", "version", 2, (
        "type", "version", "sample_interval", "start_cycle", "end_cycle",
        "samples", "samples_dropped", "series",
    ), type="meta")


def series_names(telemetry):
    """Sorted union of gauge names across all sampled rows."""
    names = set()
    for row in telemetry.samples:
        names.update(row)
    names.discard("cycle")
    return sorted(names)


def write_timeline_jsonl(telemetry, path):
    """Write the meta header + one JSON line per sample; returns rows."""
    meta = TIMELINE_META.row(
        sample_interval=telemetry.sample_interval,
        start_cycle=telemetry.start_cycle,
        end_cycle=telemetry.end_cycle,
        samples=len(telemetry.samples),
        samples_dropped=telemetry.samples_dropped,
        series=series_names(telemetry),
    )
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for row in telemetry.samples:
            fh.write(json.dumps({"type": "sample", **row}) + "\n")
    return len(telemetry.samples)


def write_timeline_csv(telemetry, path):
    """Write the sampled gauges as one CSV matrix; returns rows."""
    names = series_names(telemetry)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle"] + names)
        for row in telemetry.samples:
            writer.writerow(
                [row["cycle"]] + [row.get(name, "") for name in names]
            )
    return len(telemetry.samples)


def write_summary_json(telemetry, path, extra=None):
    """Write ``telemetry.summary()`` (+ stall tables) as one JSON file."""
    payload = telemetry.summary()
    payload["pe_stall_table"] = telemetry.pe_stall_table()
    payload["bank_stall_table"] = telemetry.bank_stall_table()
    payload["moms_latency_per_pe"] = {
        str(index): histogram.as_dict()
        for index, histogram in sorted(telemetry.moms_latency.items())
    }
    payload["miss_latency_per_bank"] = {
        name: histogram.as_dict()
        for name, histogram in sorted(telemetry.miss_latency.items())
    }
    payload["dram_latency_per_channel"] = {
        name: histogram.as_dict()
        for name, histogram in sorted(telemetry.dram_latency.items())
    }
    payload["bank_structures"] = {
        bank.name: {
            "mshr": bank.mshrs.stats.as_dict(),
            "subentries": bank.subentries.stats.as_dict(),
            "cache": bank.cache.stats.as_dict(),
        }
        for bank in telemetry.banks
    }
    payload["dram_channels"] = {
        channel.name: channel.stats.as_dict()
        for channel in telemetry.dram_channels
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return payload


def validate_timeline_jsonl(path):
    """Check the JSONL schema; raises ``ValueError`` on violation.

    Returns ``{"meta": ..., "samples": N}`` on success.  Run by
    ``python -m repro trace`` on its own output.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("timeline is empty")
    meta = TIMELINE_META.check(json.loads(lines[0]), f"{path}:1")
    known = set(meta["series"]) | {"type", "cycle"}
    last_cycle = -1
    count = 0
    for i, line in enumerate(lines[1:], start=2):
        row = json.loads(line)
        if row.get("type") != "sample":
            raise ValueError(f"line {i}: expected a sample row")
        cycle = row.get("cycle")
        if not isinstance(cycle, int) or cycle <= last_cycle:
            raise ValueError(f"line {i}: cycles must be increasing ints")
        last_cycle = cycle
        for key, value in row.items():
            if key == "type":
                continue
            if key not in known:
                raise ValueError(f"line {i}: series {key!r} not in meta")
            if not isinstance(value, (int, float)):
                raise ValueError(f"line {i}: {key!r} is non-numeric")
        count += 1
    return {"meta": meta, "samples": count}
