"""Tests for the `python -m repro` command-line entry point."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_lint_is_not_a_command(self, capsys):
        # The coding contracts are a tier-1 test module,
        # tests/analysis/test_rules.py.
        assert main(["list"]) == 0
        assert "lint" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["fig17"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 17" in out
        assert "freq MHz" in out

    def test_table4_style_experiment(self, capsys):
        assert main(["table3"]) == 0
        assert "preprocessing time" in capsys.readouterr().out

    def test_list_includes_trace(self, capsys):
        assert main(["list"]) == 0
        assert "trace" in capsys.readouterr().out

    def test_trace_subcommand_exports_and_validates(self, capsys,
                                                    tmp_path):
        prefix = str(tmp_path / "out" / "run")
        assert main([
            "trace", "--graph", "RV", "--algorithm", "bfs",
            "--interval", "128", "--out", prefix, "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert "PE cycle accounting" in out
        assert "per-stage latency decomposition" in out
        assert "validated" in out
        for suffix in (".trace.json", ".timeline.jsonl", ".timeline.csv",
                       ".summary.json", ".spans.jsonl",
                       ".spansummary.json"):
            assert (tmp_path / "out" / f"run{suffix}").exists()
        # The trace command subsumed the old spans command.
        with pytest.raises(SystemExit):
            main(["spans"])

    def test_profile_subcommand_prints_its_tables(self, capsys):
        assert main(["profile", "--graph", "24", "--algorithm", "pagerank",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-component self time (repro modules)" in out
        assert "top 3 functions by self time" in out
        assert "\nengine: " in out and "cycles simulated" in out
        assert "fusion" not in out and "fused" not in out
