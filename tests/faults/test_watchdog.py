"""Watchdog, stall reports, and fault windows (unit level)."""

import pytest

from repro.faults import Watchdog, WatchdogError, Window, build_stall_report
from repro.faults.report import format_stall_report
from repro.sim import Channel, Component, DeadlockError, Engine


class Spinner(Component):
    """Livelocks: ticks forever without ever moving a token."""

    def __init__(self, peer_channel):
        self.peer_channel = peer_channel

    def tick(self, engine):
        # Waits for space on a full channel while re-arming itself every
        # cycle -- the classic busy-wait livelock the bare deadlock
        # detector cannot see (the engine is never idle).
        if self.peer_channel.can_push():
            self.peer_channel.push("token")
        engine.wake(self)

    def is_idle(self):
        return False


def _build_livelock():
    """Two components each spinning on the other's full channel."""
    engine = Engine()
    a_to_b = engine.add_channel(Channel(1, name="a_to_b"))
    b_to_a = engine.add_channel(Channel(1, name="b_to_a"))
    # Fill both channels; nobody ever pops, so both spinners busy-wait.
    a_to_b.push("stuck")
    b_to_a.push("stuck")
    a_to_b.commit()
    b_to_a.commit()
    engine.add_component(Spinner(a_to_b))
    engine.add_component(Spinner(b_to_a))
    return engine


class TestWatchdog:
    def test_livelock_raises_structured_stall_report(self):
        engine = _build_livelock()
        engine.watchdog = Watchdog(window=500, min_ticks=10)
        with pytest.raises(WatchdogError) as excinfo:
            engine.run(done=lambda: False, max_cycles=100_000)
        error = excinfo.value
        # Caught within ~2 windows, not at the cycle budget.
        assert engine.now < 5_000
        report = error.report
        assert report["reason"].startswith("no token movement")
        stuck = {ch["name"] for ch in report["stuck_channels"]}
        assert stuck == {"a_to_b", "b_to_a"}
        assert all(ch["full"] for ch in report["stuck_channels"])
        spinners = [c for c in report["components"] if "Spinner" in
                    c["component"]]
        assert len(spinners) == 2 and all(not c["idle"] for c in spinners)
        assert "stall report at cycle" in str(error)

    def test_real_progress_never_trips(self):
        """A system that keeps moving tokens must not trip the watchdog."""
        engine = Engine()
        channel = engine.add_channel(Channel(2, name="flow"))

        class Pump(Component):
            moved = 0

            def tick(self, engine):
                if channel.can_pop():
                    channel.pop()
                    Pump.moved += 1
                if channel.can_push():
                    channel.push("x")
                engine.wake(self)

        engine.add_component(Pump())
        engine.watchdog = Watchdog(window=100, min_ticks=1)
        engine.run(done=lambda: Pump.moved >= 2_000, max_cycles=50_000)
        assert Pump.moved >= 2_000

    def test_idle_timer_wait_does_not_trip(self):
        """min_ticks filters legitimate quiet stretches (timer sleeps)."""
        engine = Engine()

        class Sleeper(Component):
            fired = False

            def tick(self, engine):
                if engine.now >= 10_000:
                    Sleeper.fired = True
                else:
                    engine.wake_at(self, 10_000)

        engine.add_component(Sleeper())
        engine.watchdog = Watchdog(window=100, min_ticks=8)
        engine.run(done=lambda: Sleeper.fired, max_cycles=50_000)
        assert Sleeper.fired

    def test_deadlock_error_carries_stall_report(self):
        """The bare DeadlockError path is enriched with the report too."""
        engine = Engine()
        channel = engine.add_channel(Channel(1, name="orphan"))

        class OneShot(Component):
            done = False

            def tick(self, engine):
                if not OneShot.done:
                    channel.push("x")
                    OneShot.done = True

        engine.add_component(OneShot())
        with pytest.raises(DeadlockError) as excinfo:
            engine.run(done=lambda: False, max_cycles=1_000)
        assert excinfo.value.report is not None
        names = [ch["name"] for ch in excinfo.value.report["stuck_channels"]]
        assert "orphan" in names
        assert "stall report" in str(excinfo.value)


class TestStallReport:
    def test_report_formats_without_error(self):
        engine = _build_livelock()
        engine._step()
        report = build_stall_report(engine, reason="unit test")
        text = format_stall_report(report)
        assert "unit test" in text
        assert "a_to_b" in text and "b_to_a" in text


class TestWindow:
    def test_active_and_boundaries(self):
        window = Window(period=100, duration=10, phase=5)
        assert not window.active(4)
        assert window.active(5)
        assert window.active(14)
        assert not window.active(15)
        assert window.next_boundary(4) == 5
        assert window.next_boundary(5) == 15
        assert window.next_boundary(20) == 105
        assert window.active(105)

    def test_rejects_degenerate_windows(self):
        with pytest.raises(ValueError):
            Window(period=10, duration=10)
        with pytest.raises(ValueError):
            Window(period=10, duration=0)
