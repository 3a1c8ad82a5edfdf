"""The cycle engine: demand-driven ticking, channel commits, idle skip.

A component is ticked only on cycles where it was *woken* -- by a
channel delivering tokens or freeing space, by a timer it armed with
``engine.wake_at`` (a latency window ending), or by itself
(``engine.wake(self)``) because it holds in-progress work.  Wall-clock
cost is proportional to *work*, not cycles x components.  When no
component is runnable the engine jumps straight to the earliest
scheduled timer, so idle latency windows cost O(log timers).

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

_NEVER = float("inf")


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

    # Registration index and back-reference, set by Engine.add_component.
    # Waking a component that was never registered fails on the None.
    _engine_order = None
    _engine = None
    # The one observer slot (a repro.sim.probe.Probe, set by the
    # accelerator system when any observer is attached).  Every event
    # site tests it once: ``if self._probe is not None: ...``.
    _probe = None

    # Activity counters: the engine keeps them per registration order
    # (Engine._tick_counts / _wake_counts), so its dispatch loop never
    # writes to objects of many classes.
    @property
    def ticks(self):
        """Times the engine ticked this component."""
        engine = self._engine
        return 0 if engine is None \
            else engine._tick_counts[self._engine_order]

    @property
    def wakes(self):
        """Times a wake() or a channel commit armed this component
        (matured timers are not counted)."""
        engine = self._engine
        return 0 if engine is None \
            else engine._wake_counts[self._engine_order]

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

    # The polled hooks.  Each exposes a due cycle and a poll method and
    # never mutates simulated state.  The run loop keeps the earliest
    # due cycle of those set and tests only that once per step; the due
    # hooks are then polled in this fixed order.
    # - watchdog (repro.faults.watchdog.Watchdog): ``next_check``,
    #   ``check(engine)``, a no-progress monitor.
    # - sampler (repro.telemetry.Telemetry): ``next_sample``,
    #   ``sample(engine)``.  Sampling happens after a simulated step
    #   only; fast-forwarded idle windows hold no state changes, so the
    #   skipped rows would have duplicated the previous one.
    # - checkpointer (repro.checkpoint.Checkpointer): ``next_checkpoint``,
    #   ``poll(engine)``.  Polled *last* so a snapshot captures the
    #   step's watchdog/sampler effects: a run resumed from the snapshot
    #   then continues exactly where the uninterrupted run's loop would.
    watchdog = None
    sampler = None
    checkpointer = None

    def __init__(self):
        self.now = 0
        self.cycles_simulated = 0
        self.cycles_skipped = 0
        self.component_ticks = 0
        self.component_wakes = 0
        self._components = []
        # Dispatch state, indexed by registration order: the bound tick
        # methods and each component's tick and wake counts.  Plain lists
        # keep every per-tick load, increment and call site monomorphic.
        self._ticks = []
        self._tick_counts = []
        self._wake_counts = []
        self._channels = []
        self._time_sources = []
        self._dirty_channels = []
        self._wake_next = {}  # order -> component, armed for the next step
        self._timers = []  # heap of (time, component order)

    # -- registration -------------------------------------------------------

    def add_component(self, component):
        """Register *component*; its ``tick`` is bound here, once.

        A class-level wrapper around ``tick`` (a profiler's timer, a
        test's counter) must be installed before the component is
        registered to be the method the engine calls.
        """
        component._engine_order = len(self._components)
        component._engine = self
        self._components.append(component)
        self._ticks.append(component.tick)
        self._tick_counts.append(0)
        self._wake_counts.append(0)
        return component

    def __getstate__(self):
        # Bound methods would pickle by name, which a wrapped tick does
        # not survive; they are rebound from the components on load.
        state = self.__dict__.copy()
        del state["_ticks"]
        return state

    def __setstate__(self, state):
        if "_tick_counts" not in state:
            raise ValueError(
                "engine state has no dispatch counters: the snapshot was "
                "written by an older code version"
            )
        self.__dict__.update(state)
        self._ticks = [component.tick for component in self._components]

    def add_channel(self, channel):
        channel.bind(self)
        self._channels.append(channel)
        return channel

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
            self._wake_counts[order] += 1

    def wake_at(self, component, time):
        """Arm *component* to be ticked at cycle *time* (at the latest)."""
        if time <= self.now + 1:
            self.wake(component)
        else:
            heapq.heappush(self._timers, (time, component._engine_order))

    # -- stepping -----------------------------------------------------------

    def _merge_due_timers(self):
        """Move timers due at the current cycle into the wake set."""
        timers = self._timers
        now = self.now
        wake = self._wake_next
        components = self._components
        while timers and timers[0][0] <= now:
            _, order = heapq.heappop(timers)
            if order not in wake:
                wake[order] = components[order]

    def _step(self):
        timers = self._timers
        if timers and timers[0][0] <= self.now:
            self._merge_due_timers()
        wake = self._wake_next
        if wake:
            self._wake_next = {}
            orders = wake if len(wake) == 1 else sorted(wake)
            self.component_ticks += len(orders)
            ticks = self._ticks
            counts = self._tick_counts
            for order in orders:
                counts[order] += 1
                ticks[order](self)
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
        due = self._next_poll()
        while True:
            if done is not None and done():
                break
            if max_cycles is not None and self.now - start >= max_cycles:
                if raise_on_limit:
                    raise self._cycle_limit(max_cycles, start)
                break
            timers = self._timers
            if timers and timers[0][0] <= self.now:
                self._merge_due_timers()
            if not self._wake_next:
                if not timers:
                    self._raise_idle(done)
                    break
                target = timers[0][0]
                if target > self.now:
                    self.cycles_skipped += target - self.now
                    self.now = target
                self._merge_due_timers()
                # Re-check done()/max_cycles at the new time before
                # stepping.
                continue
            self._step()
            if self.now >= due:
                due = self._poll_hooks()
        return self.now - start

    def _next_poll(self):
        """Earliest cycle at which a polled hook is due (inf if none)."""
        due = _NEVER
        watchdog = self.watchdog
        if watchdog is not None and watchdog.next_check < due:
            due = watchdog.next_check
        sampler = self.sampler
        if sampler is not None and sampler.next_sample < due:
            due = sampler.next_sample
        checkpointer = self.checkpointer
        if checkpointer is not None and checkpointer.next_checkpoint < due:
            due = checkpointer.next_checkpoint
        return due

    def _poll_hooks(self):
        """Poll every due hook in the fixed order; returns the next due.

        The checkpointer goes last, so a snapshot captures this step's
        watchdog and sampler effects.
        """
        now = self.now
        watchdog = self.watchdog
        if watchdog is not None and now >= watchdog.next_check:
            watchdog.check(self)
        sampler = self.sampler
        if sampler is not None and now >= sampler.next_sample:
            sampler.sample(self)
        checkpointer = self.checkpointer
        if checkpointer is not None and now >= checkpointer.next_checkpoint:
            checkpointer.poll(self)
        return self._next_poll()

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
