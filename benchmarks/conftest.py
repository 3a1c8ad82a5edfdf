"""Shared helpers for the per-figure benchmark harness.

Each benchmark runs the corresponding experiment module once, prints
the paper-style table, saves the rows under ``results/``, and applies
loose *shape* assertions (who wins, roughly by how much) -- absolute
numbers are not expected to match the paper since the substrate is a
scaled simulator, but the qualitative conclusions must hold.

Quick mode (default) uses shrunken graphs and iteration caps; set
``REPRO_FULL_SUITE=1`` for the full scaled suite.
"""

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def run_experiment(benchmark, module, **kwargs):
    """Run one experiment module under pytest-benchmark and record it."""
    from repro.experiments.common import reset_sweep_activity
    from repro.report import engine_summary_line

    quick = os.environ.get("REPRO_FULL_SUITE", "") in ("", "0")
    holder = {}
    reset_sweep_activity()

    def once():
        holder["result"] = module.run(quick=quick, **kwargs)
        return holder["result"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    rows, text = holder["result"]
    print("\n" + text)
    print(engine_summary_line())
    RESULTS_DIR.mkdir(exist_ok=True)
    name = module.__name__.rsplit(".", 1)[-1]
    with open(RESULTS_DIR / f"{name}.json", "w") as fh:
        json.dump(rows, fh, indent=2, default=str)
    with open(RESULTS_DIR / f"{name}.txt", "w") as fh:
        fh.write(text + "\n")
    return rows
