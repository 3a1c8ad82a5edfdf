"""The parallel sweep runner and its engine-activity accounting."""

import pytest

from repro.core.stats import EngineActivity, component_breakdown
from repro.experiments.common import (
    SweepFailure,
    SweepPolicy,
    default_jobs,
    run_points,
)
from repro.report import engine_summary_line
from repro.sim import Channel
from repro.sim.engine import Engine


def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError("injected failure at two")
    return x


class TestRunPoints:
    def test_preserves_order_serial(self):
        assert run_points(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_preserves_order_parallel(self):
        assert run_points(_square, [4, 2, 5, 3], jobs=2) == [16, 4, 25, 9]

    def test_failing_point_is_named_after_the_others_finish(self):
        """With an inert policy a parallel sweep still isolates a
        failing point: the other points complete, then the sweep raises
        naming the failed point's index."""
        with pytest.raises(SweepFailure) as excinfo:
            run_points(_fail_on_two, [1, 2, 3], jobs=2,
                       policy=SweepPolicy())
        failure = excinfo.value
        assert list(failure.failures) == [1]
        assert "injected failure at two" in failure.failures[1]
        assert failure.completed == 2

    def test_single_point_stays_in_process(self):
        # One point never pays a fork (the closure's side effect is only
        # visible when it ran in this process).
        seen = []

        def local_worker(x):
            seen.append(x)
            return x

        assert run_points(local_worker, [7], jobs=8) == [7]
        assert seen == [7]

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1


class TestEngineActivity:
    def test_merge_and_fraction(self):
        total = EngineActivity()
        total.merge(EngineActivity(
            cycles_simulated=100, cycles_skipped=10,
            component_ticks=40, component_wakes=42,
            all_tick_equivalent=400, runs=1,
        ))
        total.merge({
            "cycles_simulated": 50, "cycles_skipped": 0,
            "component_ticks": 60, "component_wakes": 61,
            "all_tick_equivalent": 100, "runs": 1,
        })
        assert total.cycles_total == 160
        assert total.component_ticks == 100
        assert total.tick_fraction == pytest.approx(0.2)
        assert total.ticks_avoided == 400
        assert total.runs == 2

    def test_round_trips_through_dict(self):
        activity = EngineActivity(cycles_simulated=5, component_ticks=3,
                                  all_tick_equivalent=15, runs=1)
        clone = EngineActivity.from_dict(activity.as_dict())
        assert clone == activity

    def test_from_engine_counts_components(self):
        engine = Engine()
        engine.add_channel(Channel(2))
        engine._step()
        activity = EngineActivity.from_engine(engine)
        assert activity.cycles_simulated == 1
        assert activity.runs == 1

    def test_summary_line_mentions_jobs(self):
        activity = EngineActivity(cycles_simulated=1000, cycles_skipped=20,
                                  component_ticks=300, component_wakes=310,
                                  all_tick_equivalent=3000, runs=2)
        line = activity.summary_line(jobs=4)
        assert "10.0% of all-tick" in line
        assert "jobs=4" in line
        assert "2 runs" in line

    def test_report_summary_accepts_dict(self):
        line = engine_summary_line(
            {"cycles_simulated": 10, "cycles_skipped": 0,
             "component_ticks": 4, "component_wakes": 4,
             "all_tick_equivalent": 20, "runs": 1},
            jobs=1,
        )
        assert "20.0% of all-tick" in line


class TestComponentBreakdown:
    def test_groups_by_class(self):
        from repro.sim import Component

        engine = Engine()

        class Noop(Component):
            def tick(self, eng):
                pass

        first = engine.add_component(Noop())
        second = engine.add_component(Noop())
        engine.wake(first)
        engine._step()
        engine.wake(second)
        engine._step()
        rows = component_breakdown(engine)
        assert len(rows) == 1
        assert rows[0].kind == "Noop"
        assert rows[0].count == 2
        assert rows[0].ticks == 2
        assert rows[0].wakes == 2
