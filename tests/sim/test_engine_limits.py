"""Cycle-budget diagnostics: CycleLimitError context on opt-in."""

import pytest

from repro.sim import Channel, Component, CycleLimitError, Engine


class Forever(Component):
    """Always busy, never finishes: exercises the budget path."""

    def __init__(self, channel):
        self.channel = channel

    def tick(self, engine):
        if self.channel.can_pop():
            self.channel.pop()
        if self.channel.can_push():
            self.channel.push("again")
        engine.wake(self)

    def is_idle(self):
        return False


def _busy_engine():
    engine = Engine()
    channel = engine.add_channel(Channel(2, name="spin"))
    engine.add_component(Forever(channel))
    return engine


class TestCycleLimit:
    def test_default_still_returns_at_budget(self):
        """Pollers rely on max_cycles returning, not raising."""
        engine = _busy_engine()
        elapsed = engine.run(done=lambda: False, max_cycles=50)
        assert elapsed == 50

    def test_raise_on_limit_carries_context(self):
        engine = _busy_engine()
        with pytest.raises(CycleLimitError) as excinfo:
            engine.run(done=lambda: False, max_cycles=75,
                       raise_on_limit=True)
        error = excinfo.value
        message = str(error)
        # The message names the budget, the current cycle, and the
        # activity summary -- enough to triage without a debugger.
        assert "cycle budget of 75" in message
        assert "at cycle 75" in message
        assert "component_ticks=" in message
        assert error.activity["cycles_simulated"] == 75
        assert error.report is not None
        assert error.report["cycle"] == 75

    def test_not_raised_when_done_in_time(self):
        engine = _busy_engine()
        engine.run(done=lambda: engine.now >= 10, max_cycles=100,
                   raise_on_limit=True)
        assert engine.now < 100
