"""Tests for the `python -m repro` command-line entry point."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import Checkpointer, read_header
from repro.graph import web_graph


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return env


def _replay_system(checkpoint=None):
    config = ArchitectureConfig(
        _design(4, 4, "shared", "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    return AcceleratorSystem(web_graph(500, 2500, seed=7), "pagerank",
                             config, checkpoint=checkpoint)


# Runs the CLI with the test-only dependencies made unimportable, then
# imports every module of the package the same way.
_WITHOUT_TEST_DEPS = """
import importlib, pkgutil, runpy, sys
for name in ("scipy", "networkx"):
    sys.modules[name] = None
sys.argv = ["repro", "list"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert not done.code, done.code
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
"""


class TestCli:
    def test_runs_without_test_only_dependencies(self):
        """scipy and networkx are test extras; nothing in src needs them."""
        done = subprocess.run(
            [sys.executable, "-c", _WITHOUT_TEST_DEPS], env=_cli_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "fig01" in done.stdout

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

    @pytest.mark.parametrize("command", ["chaos", "faultsmoke"])
    def test_robustness_harnesses_are_not_commands(self, command, capsys):
        # Kill/resume and the fault plans are proved by tests:
        # tests/experiments/test_sweep_hardening.py and
        # tests/faults/test_fault_plans.py.
        assert main(["list"]) == 0
        assert command not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2

    def test_replay_resumes_a_snapshot_in_a_fresh_interpreter(
            self, tmp_path):
        straight = _replay_system().run(max_iterations=2)
        path = str(tmp_path / "mid.snap")
        _replay_system(
            Checkpointer(path, interval=straight.cycles // 2),
        ).run(max_iterations=2)
        header = read_header(path)
        assert 0 < header["cycle"] < straight.cycles

        done = subprocess.run(
            [sys.executable, "-m", "repro", "replay", path],
            env=_cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert f"from cycle {header['cycle']}" in done.stdout
        finished = re.search(r"finished at cycle (\d+) after (\d+) "
                             r"iteration", done.stdout)
        assert finished, done.stdout
        assert int(finished.group(1)) == straight.cycles
        assert int(finished.group(2)) == straight.iterations

    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["fig17"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 17" in out
        assert "freq MHz" in out
        # Fig. 17 simulates nothing, so it prints no engine line.
        assert "engine:" not in out

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
            "--interval", "128", "--out", prefix,
        ]) == 0
        out = capsys.readouterr().out
        assert "PE cycle accounting" in out
        assert "per-stage latency decomposition" in out
        assert "validated" in out
        # One observed run, one file.
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "run.trace.json"]
        other = json.loads((tmp_path / "out" / "run.trace.json")
                           .read_text())["otherData"]
        assert other["run"]["graph"] == "RV"
        assert {"telemetry", "spans"} <= set(other)
        # The trace command subsumed the old spans command and the CSV
        # side export.
        with pytest.raises(SystemExit):
            main(["spans"])
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--out", prefix, "--csv"])
        assert exit_info.value.code == 2

    def test_profile_subcommand_prints_its_tables(self, capsys):
        assert main(["profile", "--graph", "24", "--algorithm", "pagerank",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-component self time (repro modules)" in out
        assert "top 3 functions by self time" in out
        assert "\nengine: " in out and "cycles simulated" in out
        assert "fusion" not in out and "fused" not in out
