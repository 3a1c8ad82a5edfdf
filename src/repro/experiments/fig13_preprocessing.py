"""Fig. 13 -- PageRank throughput by preprocessing technique.

Runs the 18/16 two-level design with the four preprocessing variants:
nothing, cache-line hashing, DBG, and DBG + hashing -- in two regimes:

* **scarce jobs** (destination intervals sized so jobs barely exceed
  the PE count): the paper's setting for its smaller benchmarks, where
  "fewer jobs [make] load balancing more critical" and hashing pays;
* **plentiful jobs** (the default >= 4 jobs/PE clamp): dynamic
  scheduling already balances load, so hashing's benefit fades and can
  go slightly negative -- the paper reports the same reversal on the
  graphs where community grouping beats uniform job size.

DBG's first-order effect -- denser cache-line reuse, hence fewer DRAM
line fetches -- is reported as ``dbg line ratio``.
"""

import copy

from repro.accel.config import named_architectures
from repro.experiments.common import (
    SweepPoint,
    quick_benchmarks,
    quick_channels,
    run_sweep,
)
from repro.report import format_table

VARIANTS = (
    ("none", dict(use_hashing=False, use_dbg=False)),
    ("hash", dict(use_hashing=True, use_dbg=False)),
    ("dbg", dict(use_hashing=False, use_dbg=True)),
    ("dbg+hash", dict(use_hashing=True, use_dbg=True)),
)


def run(quick=True, n_channels=None, arch_name="18/16 two-level 64k"):
    if n_channels is None:
        n_channels = quick_channels(quick)
    base = named_architectures("pagerank", n_channels)[arch_name]
    scarce = copy.deepcopy(base)
    scarce.min_jobs_per_pe = 0.5  # paper-like job:PE ratios (~1-2x)
    cells = [
        (regime, config, key)
        for regime, config in (("scarce jobs", scarce),
                               ("plentiful jobs", base))
        for key in quick_benchmarks(quick)
    ]
    points = [
        SweepPoint(key, "pagerank", config, quick, **options)
        for _regime, config, key in cells
        for _label, options in VARIANTS
    ]
    results = iter(run_sweep(points))
    rows = []
    for regime, _config, key in cells:
        row = {"regime": regime, "benchmark": key}
        lines = {}
        for label, _options in VARIANTS:
            result = next(results)
            row[label] = result.gteps
            lines[label] = result.stats["dram_lines_single"]
        row["hash speedup"] = (
            row["hash"] / row["none"] if row["none"] else 0
        )
        row["dbg+hash speedup"] = (
            row["dbg+hash"] / row["none"] if row["none"] else 0
        )
        row["dbg line ratio"] = (
            lines["dbg+hash"] / lines["hash"] if lines["hash"] else 0
        )
        rows.append(row)
    text = format_table(
        rows,
        title=f"Fig. 13 -- PageRank GTEPS by preprocessing ({arch_name})",
    )
    return rows, text
