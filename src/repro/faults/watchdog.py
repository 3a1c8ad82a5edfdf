"""No-progress watchdog for ``Engine.run``.

The demand-driven engine already diagnoses true deadlocks (empty wake
set, no timers, work pending), but a *livelock* -- components ticking
forever without moving a single token, e.g. a retry loop whose unblock
condition can never arrive -- runs until the cycle budget and then
fails with no evidence.  The watchdog samples a progress signature
(total channel token movement) every ``window`` cycles; a window in
which components kept ticking but no token moved raises
:class:`WatchdogError` carrying a structured stall report instead of
letting the run hang.

Attach with ``engine.watchdog = Watchdog(window=...)`` (or let
``AcceleratorSystem(checks=True)`` do it).  The engine's run loop only
pays an ``is None`` test when no watchdog is attached.
"""

from repro.faults.report import build_stall_report, format_stall_report


class WatchdogError(RuntimeError):
    """No token moved for a full watchdog window while work remained.

    ``report`` holds the structured stall report (see
    :func:`repro.faults.report.build_stall_report`); ``checkpoint`` is
    its last-checkpoint block (path, cycle, ready-to-run replay
    command) or ``None`` when the run was not checkpointing -- so a
    harness catching the error can point straight at a reproducer.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
        self.checkpoint = (report or {}).get("checkpoint")


class Watchdog:
    """Progress monitor polled by the engine's run loop.

    ``window`` is the no-progress tolerance in cycles; it must comfortably
    exceed the longest legitimate quiet stretch (DRAM latency, blackout
    windows under fault injection), which is why the default is large.
    ``min_ticks`` filters idle waits: a window with almost no component
    ticks is the engine sleeping on a timer, not a livelock.
    """

    def __init__(self, window=200_000, min_ticks=64):
        if window < 1:
            raise ValueError("watchdog window must be >= 1 cycle")
        self.window = window
        self.min_ticks = min_ticks
        self.next_check = 0
        self._last_movement = -1
        self._last_ticks = 0
        self.checks = 0

    def _movement(self, engine):
        # Every token movement pushes or pops a channel: a die crossing
        # admits into its registers only by popping its input channel.
        total = 0
        for channel in engine._channels:
            total += channel.total_pushed + channel.total_popped
        return total

    def begin(self, engine):
        """Reset the sampling baseline at the start of a run() call."""
        self.next_check = engine.now + self.window
        self._last_movement = self._movement(engine)
        self._last_ticks = engine.component_ticks

    def check(self, engine):
        """Poll progress; raise :class:`WatchdogError` on a dead window."""
        self.checks += 1
        movement = self._movement(engine)
        ticks_in_window = engine.component_ticks - self._last_ticks
        stalled = (
            movement == self._last_movement
            and ticks_in_window >= self.min_ticks
        )
        self._last_movement = movement
        self._last_ticks = engine.component_ticks
        self.next_check = engine.now + self.window
        if not stalled:
            return
        report = build_stall_report(
            engine,
            reason=f"no token movement for {self.window} cycles "
                   f"({ticks_in_window} ticks ran)",
        )
        raise WatchdogError(
            f"watchdog: no progress in {self.window} cycles at cycle "
            f"{engine.now}\n{format_stall_report(report)}",
            report,
        )
