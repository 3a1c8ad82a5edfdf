"""Tests of the benchmark harness, on tiny graphs.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.graph.generators import rmat_graph, web_graph

import compare
import measure
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = {
    "pr-orgs": lambda: web_graph(256, 1024, seed=3),
    "pr-starved": lambda: rmat_graph(6, edge_factor=8, seed=5),
    "sssp-web": lambda: web_graph(256, 1024, seed=7),
}


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: measure.run_workload(workload, seed=0, seconds=0, trace=True,
                                   topology=TINY[name]())
        for name, workload in workloads.WORKLOADS.items()
    }


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] \
        == list(workloads.WORKLOADS) == list(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == measure.PER_LAYER
    assert SPEC["run_seconds"] == run.RUN_SECONDS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_result_names_are_declared_and_legal(traced_runs):
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in traced_runs.values():
        names = set(result.end_to_end()) | set(result.per_layer())
        assert names <= declared
        assert all(NAME.fullmatch(name) for name in names)


def test_tiny_runs_pass_their_reference_checks(traced_runs):
    for result in traced_runs.values():
        assert result.failures == []
        assert result.attempted == 3 * len(result.workload.points)
        assert all(value > 0 for value in result.end_to_end().values())


def test_traced_run_covers_the_engine(traced_runs):
    # Every traced point already passed check_coverage's tick identity;
    # here the layer self times plus dispatch make up the traced wall.
    for result in traced_runs.values():
        traced = [rep for rep in result.repeats if rep.host is not None]
        assert traced
        for rep in traced:
            accounted = sum(rep.host[f"{layer}.self_s"]
                            for layer in measure.HOST_LAYERS)
            assert rep.host["sim.engine.dispatch_s"] >= 0
            assert accounted + rep.host["sim.engine.dispatch_s"] \
                == pytest.approx(rep.wall_s)
            assert rep.unknown_layers == []


def test_coverage_check_fails_loudly_on_a_missed_tick():
    engine = SimpleNamespace(component_ticks=10, fused_cycles=2)
    taken = {("accel.pe", "tick"): (0.5, 8)}
    assert measure.check_coverage(taken, 1.0, engine) == pytest.approx(0.5)
    with pytest.raises(measure.CoverageError):
        measure.check_coverage({("accel.pe", "tick"): (0.5, 7)}, 1.0, engine)
    with pytest.raises(measure.CoverageError):
        measure.check_coverage(taken, 0.4, engine)


def test_tracing_restores_the_simulator():
    classes = measure.component_classes()
    before = [vars(cls).get("tick") for cls in classes]
    with measure.LayerTrace().installed():
        assert [vars(cls).get("tick") for cls in classes] != before
    assert [vars(cls).get("tick") for cls in classes] == before


def test_injected_wrong_value_is_counted_as_failed(monkeypatch):
    original = workloads.AcceleratorSystem.run

    def corrupted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.values[0] += 1
        return result

    monkeypatch.setattr(workloads.AcceleratorSystem, "run", corrupted)
    result = measure.run_workload(workloads.WORKLOADS["sssp-web"], seed=0,
                                  seconds=0, topology=TINY["sssp-web"]())
    assert result.failed == result.attempted == 3
    assert "SSSP distances differ" in result.failures[0]


def test_repro_knobs_do_not_reach_children(monkeypatch):
    monkeypatch.setenv("REPRO_FUSION", "off")
    seen = run.spawn([sys.executable, "-c",
                      "import json, os; print(json.dumps(sorted("
                      "k for k in os.environ if k.startswith('REPRO_'))))"])
    assert seen == []


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)],
     "higher", "improved"),
    ([100 + i % 3 for i in range(5)], [120 + i % 3 for i in range(5)],
     "higher", "unchanged"),  # too few pairs to claim a gain
    ([100, 101, 99, 100, 102], [100, 99, 101, 100, 101], "lower",
     "unchanged"),
    ([100, 101, 99, 100, 102], [120, 119, 121, 118, 122], "lower",
     "regressed"),
    ([100, 140, 70, 120, 90], [120, 119, 121, 118, 122], "lower",
     "unresolved"),
    ([100, 140, 70, 120, 90], [60, 61, 59, 62, 58], "lower", "unchanged"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.10) == expected


def test_compare_flags_a_model_change():
    def report(cycles, gteps):
        traced = {"metrics": {"sim.engine.cycles": {"value": cycles}}}
        runs = [{"metrics": {"gteps": {"value": gteps}}}]
        return {"model_metrics": ["sim.engine.cycles"],
                "workloads": {"w": {"runs": runs, "traced": traced}}}

    assert compare.model_differences(report(5, 0.2), report(5, 0.2)) == {}
    assert compare.model_differences(report(5, 0.2), report(6, 0.2)) \
        == {"w": ["sim.engine.cycles"]}
    assert compare.model_differences(report(5, 0.2), report(5, 0.3)) \
        == {"w": ["gteps"]}
