"""The cycle engine: demand-driven ticking, channel commits, idle skip.

A component is ticked only on cycles where it was *woken* -- by a
channel delivering tokens or freeing space, by a delay-line token
maturing (a timer), or by itself (``engine.wake(self)``) because it
holds in-progress work.  Wall-clock cost is proportional to *work*,
not cycles x components.  When no component is runnable the engine
jumps straight to the earliest scheduled timer, so idle latency
windows cost O(log timers).

Demand scheduling only skips ticks that are provably no-ops (no
visible input tokens, no freed space, no matured timer, no declared
internal work), so the state trajectory over ``engine.now`` is that of
ticking every component every cycle; the golden corpus
(``tests/golden``) pins it.  The activity counters
(``cycles_simulated``, ``component_ticks``) measure the saved work.

A component may also sleep through ticks that are not no-ops when it
can prove each one repeats the previous tick's effects exactly, and
settle them in bulk on its next tick: the MOMS bank does this for a
cuckoo MSHR retry that cannot succeed until a line returns (DESIGN
6.1).  The engine knows nothing of it; such a sleep is one more wake
condition the component wires itself.
"""

import heapq


class DeadlockError(RuntimeError):
    """Raised when no component can make progress but work remains.

    ``report`` (when set) carries the structured stall report built by
    :func:`repro.faults.report.build_stall_report`: which channels hold
    or block work, who subscribes to them, and which timers remain.
    """

    report = None


class CycleLimitError(RuntimeError):
    """A ``run()`` call exhausted its cycle budget with work remaining.

    Raised only when the caller opts in with ``raise_on_limit=True``;
    the message and the ``activity`` / ``report`` attributes carry the
    diagnosis context (cycle counters, scheduler activity, and the wait
    structure at the moment the budget ran out).
    """

    def __init__(self, message, activity=None, report=None):
        super().__init__(message)
        self.activity = activity or {}
        self.report = report


class Component:
    """Base class for everything ticked by the engine.

    Subclasses override :meth:`tick`.  A component is ticked only when
    woken, so it must wire its wake conditions: channel subscriptions,
    timers (``engine.wake_at``), or ``engine.wake(self)`` re-arms while
    it holds work.  :meth:`Engine.run` wakes every component once on
    entry.
    """

    # Activity counters (class attributes double as zero defaults; the
    # first increment creates the instance attribute).
    ticks = 0
    wakes = 0
    _engine_order = -1
    _engine = None  # back-reference, set by Engine.add_component
    # The one observer slot (a repro.sim.probe.Probe, set by the
    # accelerator system when any observer is attached).  Every event
    # site tests it once: ``if self._probe is not None: ...``.
    _probe = None

    def request_wake(self):
        """Ask to be ticked next cycle (no-op before registration).

        For code outside tick() that mutates component state directly
        (e.g. queueing jobs between run() calls) and must ensure the
        component notices even under manual _step() driving.
        """
        if self._engine is not None:
            self._engine.wake(self)

    def tick(self, engine):
        """Advance this component by one clock cycle."""
        raise NotImplementedError

    def is_idle(self):
        """True if this component holds no in-progress work.

        Used only for end-of-run sanity checks; the default is True so
        purely reactive components need not override it.
        """
        return True


class Engine:
    """Drives a set of components and channels cycle by cycle.

    The per-cycle order is: tick the runnable components in
    registration order, then commit every channel touched this cycle.
    Registered (next-cycle) channel semantics make results independent
    of the registration order; the fixed order merely keeps arbitration
    deterministic.
    """

    # Optional no-progress monitor (repro.faults.watchdog.Watchdog);
    # the run loop pays a single "is None" test per step when unset.
    watchdog = None
    # Optional telemetry sampler (repro.telemetry.Telemetry): same
    # contract as the watchdog -- exposes ``next_sample`` and
    # ``sample(engine)``, costs one "is None" test per step when unset,
    # and never mutates simulated state (cycle results are identical
    # with sampling on or off).  Sampling happens after a simulated
    # step only; fast-forwarded idle windows hold no state changes, so
    # the skipped rows would have duplicated the previous one.
    sampler = None
    # Optional periodic checkpointer (repro.checkpoint.Checkpointer):
    # same hook contract again -- exposes ``next_checkpoint`` and
    # ``poll(engine)``, costs one "is None" test per step when unset.
    # Polled *last* among the hooks so a snapshot captures the step's
    # watchdog/sampler effects: a run resumed from the snapshot then
    # continues exactly where the uninterrupted run's loop would.
    checkpointer = None
    # The probe installed on the components (repro.sim.probe.Probe).
    # Unlike the three hooks above it is purely event-driven and the
    # run loop never polls it; it hangs here so stall/fault reports can
    # reach its observers (see repro.faults.report.build_stall_report).
    probe = None

    def __init__(self):
        self.now = 0
        self.cycles_simulated = 0
        self.cycles_skipped = 0
        self.component_ticks = 0
        self.component_wakes = 0
        self._components = []
        self._channels = []
        self._time_sources = []
        self._dirty_channels = []
        self._wake_next = {}  # order -> component, armed for the next step
        self._timers = []  # heap of (time, order); order -1 = bare event

    # -- registration -------------------------------------------------------

    def add_component(self, component):
        component._engine_order = len(self._components)
        component._engine = self
        self._components.append(component)
        return component

    def add_channel(self, channel):
        channel.bind(self)
        self._channels.append(channel)
        return channel

    def add_delay_line(self, line):
        line.bind(self)
        self._time_sources.append(line)
        return line

    def add_time_source(self, source):
        """Register any object exposing next_event_time() and .pending.

        Time sources feed the deadlock diagnosis; the components they
        feed schedule their own timers via :meth:`wake_at`.
        """
        self._time_sources.append(source)
        return source

    # -- wake API -----------------------------------------------------------

    def wake(self, component):
        """Arm *component* to be ticked on the next simulated cycle."""
        order = component._engine_order
        wake = self._wake_next
        if order not in wake:
            wake[order] = component
            self.component_wakes += 1
            component.wakes += 1

    def wake_at(self, component, time):
        """Arm *component* to be ticked at cycle *time* (at the latest)."""
        if time <= self.now + 1:
            self.wake(component)
        else:
            heapq.heappush(self._timers, (time, component._engine_order))

    def note_event_at(self, time):
        """Record that *something* happens at cycle *time*.

        Used by delay lines with no subscribed consumer: the event
        cannot wake anyone, but it bounds how far idle fast-forward may
        jump.
        """
        if time > self.now:
            heapq.heappush(self._timers, (time, -1))

    # -- stepping -----------------------------------------------------------

    def _merge_due_timers(self):
        """Move timers due at the current cycle into the wake set."""
        timers = self._timers
        now = self.now
        wake = self._wake_next
        components = self._components
        while timers and timers[0][0] <= now:
            _, order = heapq.heappop(timers)
            if order >= 0 and order not in wake:
                wake[order] = components[order]

    def _step(self):
        timers = self._timers
        if timers and timers[0][0] <= self.now:
            self._merge_due_timers()
        wake = self._wake_next
        self._wake_next = {}
        if wake:
            if len(wake) == 1:
                run_list = wake.values()
            else:
                run_list = [wake[order] for order in sorted(wake)]
        else:
            run_list = ()
        self.component_ticks += len(run_list)
        for component in run_list:
            component.ticks += 1
            component.tick(self)
        # Only channels touched this cycle need an end-of-cycle commit.
        dirty = self._dirty_channels
        if dirty:
            self._dirty_channels = []
            for channel in dirty:
                channel.commit()
        self.now += 1
        self.cycles_simulated += 1

    # -- diagnosis ----------------------------------------------------------

    def _pending_work(self):
        if any(ch.pending for ch in self._channels):
            return True
        if any(source.pending for source in self._time_sources):
            return True
        return False

    def _raise_idle(self, done):
        """Idle with no scheduled events: finish or diagnose a deadlock.

        ``done=None`` means run to global idle, which this is.
        """
        if done is None or done():
            return
        if self._pending_work():
            raise self._deadlock(
                f"no progress at cycle {self.now} with work pending"
            )
        raise self._deadlock(
            f"run() not done at cycle {self.now} but system is idle"
        )

    def _deadlock(self, message):
        """Build a DeadlockError enriched with a structured stall report."""
        # Imported lazily: the happy path never touches repro.faults.
        from repro.faults.report import build_stall_report, \
            format_stall_report
        report = build_stall_report(self, reason="deadlock")
        error = DeadlockError(f"{message}\n{format_stall_report(report)}")
        error.report = report
        return error

    def _cycle_limit(self, max_cycles, start):
        """Build a CycleLimitError with activity + stall context."""
        from repro.faults.report import build_stall_report, \
            format_stall_report
        activity = self.activity()
        report = build_stall_report(self, reason="cycle budget exceeded")
        pending = sum(ch.pending for ch in self._channels) \
            + sum(source.pending for source in self._time_sources)
        summary = ", ".join(f"{k}={v}" for k, v in activity.items())
        return CycleLimitError(
            f"cycle budget of {max_cycles} exceeded at cycle {self.now} "
            f"(ran {self.now - start} cycles this call, {pending} tokens "
            f"in flight; {summary})\n{format_stall_report(report)}",
            activity=activity,
            report=report,
        )

    # -- the run loop -------------------------------------------------------

    def run(self, done=None, max_cycles=None, raise_on_limit=False,
            resume=False):
        """Run until *done()* is true (or until globally idle).

        Returns the number of cycles elapsed during this call.  When no
        component is runnable the engine jumps directly to the next
        scheduled event; if there is none and work is still pending,
        the system is deadlocked and :class:`DeadlockError` is raised.

        ``max_cycles`` bounds the call; by default hitting the bound
        just returns (callers that use it as a polling quantum rely on
        that), but with ``raise_on_limit=True`` it raises
        :class:`CycleLimitError` carrying the activity counters and a
        stall report so a busted budget is diagnosable.

        ``resume=True`` continues a run() call that was interrupted
        mid-flight and restored from a snapshot: the entry wake-all and
        the watchdog baseline reset are skipped, because the restored
        ``_wake_next``/``_timers``/watchdog state already encode them --
        re-applying either would perturb the wake counters (reported in
        run stats) away from the uninterrupted run.
        """
        start = self.now
        if not resume:
            # Callers mutate component state between run() calls
            # (queueing jobs, rewriting memory images); give every
            # component one cycle to notice.
            for component in self._components:
                self.wake(component)
        watchdog = self.watchdog
        if watchdog is not None and not resume:
            watchdog.begin(self)
        sampler = self.sampler
        checkpointer = self.checkpointer
        while True:
            if done is not None and done():
                break
            if max_cycles is not None and self.now - start >= max_cycles:
                if raise_on_limit:
                    raise self._cycle_limit(max_cycles, start)
                break
            self._merge_due_timers()
            if not self._wake_next:
                timers = self._timers
                if not timers:
                    self._raise_idle(done)
                    break
                target = timers[0][0]
                if target > self.now:
                    self.cycles_skipped += target - self.now
                    self.now = target
                self._merge_due_timers()
                # Re-check done()/max_cycles at the new time before
                # stepping; a bare event may have woken nobody.
                continue
            self._step()
            if watchdog is not None and self.now >= watchdog.next_check:
                watchdog.check(self)
            if sampler is not None and self.now >= sampler.next_sample:
                sampler.sample(self)
            if checkpointer is not None \
                    and self.now >= checkpointer.next_checkpoint:
                checkpointer.poll(self)
        return self.now - start

    # -- statistics ---------------------------------------------------------

    def activity(self):
        """Scheduler-efficiency counters as a plain dict.

        The one reader of the engine's counters: ``EngineActivity``
        (:mod:`repro.core.stats`) and the run stats' ``engine`` entry
        build on it.  ``component_ticks`` versus ``cycles x
        components`` is the demand-driven win; ``cycles_skipped`` the
        idle fast-forward win.
        """
        return {
            "cycles_simulated": self.cycles_simulated,
            "cycles_skipped": self.cycles_skipped,
            "component_ticks": self.component_ticks,
            "component_wakes": self.component_wakes,
            "n_components": len(self._components),
        }
