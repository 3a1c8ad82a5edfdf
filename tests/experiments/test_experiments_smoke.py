"""Smoke tests for the experiment harness: well-formed rows, cheaply.

The heavy sweeps live in benchmarks/; here we check each experiment
module produces consistent, schema-stable output on minimal inputs.
"""

import json
import pathlib

from repro.experiments import (
    fig01_motivation,
    fig13_preprocessing,
    fig17_resources,
    table2_datasets,
    table3_preprocessing_time,
)
from repro.experiments.common import (
    bench_graph,
    iteration_budget,
    quick_benchmarks,
    quick_channels,
    reset_sweep_activity,
    sweep_activity,
)
from repro.experiments.fig16_sota import table4_rows


class TestCommon:
    def test_quick_benchmarks_subset_of_suite(self):
        from repro.graph.datasets import BENCHMARKS
        assert set(quick_benchmarks(True)) <= set(BENCHMARKS)
        assert set(quick_benchmarks(False)) == set(BENCHMARKS)

    def test_bench_graph_quick_is_smaller(self):
        quick = bench_graph("WT", True)
        full = bench_graph("WT", False)
        assert quick.n_edges < full.n_edges

    def test_iteration_budget(self):
        assert iteration_budget("pagerank", True) < iteration_budget(
            "pagerank", False
        )
        assert iteration_budget("scc", False) is None

    def test_quick_channels(self):
        assert quick_channels(True) == 2
        assert quick_channels(False) == 4


class TestCheapExperiments:
    def test_table2_rows_schema(self):
        rows, text = table2_datasets.run(quick=True)
        assert len(rows) == 12
        assert {"key", "N", "M", "avg deg"} <= set(rows[0])
        assert "Table II" in text

    def test_table3_rows_schema(self):
        rows, text = table3_preprocessing_time.run(quick=True)
        assert len(rows) == 12
        for row in rows:
            assert row["partitioning (s)"] >= 0

    def test_fig17_rows_schema(self):
        rows, text = fig17_resources.run()
        assert len(rows) == 6
        for row in rows:
            assert 0 < row["LUT %"] < 150
            assert isinstance(row["meets timing"], bool)

    def test_fig01_ordering(self):
        rows, _ = fig01_motivation.run(quick=True, graph_key="WT")
        by_name = {r["memory system"]: r["lines/read"] for r in rows}
        assert by_name["ideal cache"] <= by_name["MOMS (two-level)"]

    def test_table4_constants(self):
        rows = table4_rows()
        assert len(rows) == 3
        assert any("64 GB/s" in r["ext. bandwidth"] for r in rows)


RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "results"


class TestSweptExperiments:
    def test_fig13_points_run_through_the_sweep(self, monkeypatch):
        """Fig. 13's points are sweep points: the engine tally counts
        every one, and the rows equal the committed table's rows for
        the same graph."""
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setattr(fig13_preprocessing, "quick_benchmarks",
                            lambda quick: ("24",))
        reset_sweep_activity()
        rows, _text = fig13_preprocessing.run(quick=True)
        activity = sweep_activity()
        assert activity.runs == 2 * len(fig13_preprocessing.VARIANTS)
        assert activity.cycles_simulated > 0
        committed = json.loads(
            (RESULTS_DIR / "fig13_preprocessing.json").read_text())
        assert rows == [row for row in committed if row["benchmark"] == "24"]
