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

On top of demand scheduling sits **macro-tick fusion** (DESIGN 6.9):
when exactly one component is woken and the stability oracle proves
the next cycles are free of timer maturities, hook points, and
cycle-budget edges, the engine offers the component one
``step_n(engine, budget)`` call that may advance m provably *silent*
cycles in a single batch, then runs a completely normal tick for the
cycle after the batch.  Silent means: the exact per-cycle state and
stat effects, but no channel pushes, no pops from channels with space
watchers, no wakes of other components, and no hook side effects --
so anything observable happens on the ordinary per-cycle path and the
state trajectory stays bit-identical to per-cycle execution.
"""

import heapq

#: Cap on the length of one fused run.  The stability oracle usually
#: clamps far below this; the cap only bounds pathological cases (a
#: component that could run silently forever would otherwise starve
#: the done() check).
FUSION_DEFAULT_CAP = 4096


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
    # Macro-tick fusion opt-in.  Components that can batch a run of
    # provably *silent* cycles override this with a method
    # ``step_n(engine, budget) -> int`` returning how many cycles m
    # (0 <= m <= budget) were advanced.  The contract (DESIGN 6.9):
    # the m covered cycles must be exactly the state/stat effects the
    # per-cycle ticks would have had, with NO channel pushes, pops
    # from channels that have space watchers, wakes of other
    # components, hook side effects, or per-cycle ``engine.now``
    # reads (the engine advances ``now`` only after step_n returns).
    # The engine then executes a completely normal tick for the next
    # cycle, so anything non-silent happens on the ordinary path.
    step_n = None
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
    # Macro-tick fusion counters (class attributes double as zero
    # defaults for engines unpickled from pre-fusion snapshots, which
    # also resume with fusion disabled: their snapshotted wake/timer
    # state predates the silent-cycle bookkeeping).
    fused_runs = 0
    fused_cycles = 0
    _fusion_cap = 0

    def __init__(self):
        self.now = 0
        self.cycles_simulated = 0
        self.cycles_skipped = 0
        self.component_ticks = 0
        self.component_wakes = 0
        self.fused_runs = 0
        self.fused_cycles = 0
        self.fusion_abort_reasons = {}
        # Instance state, so snapshots carry it: a resumed run replays
        # with the original's fusion decisions.
        self._fusion_cap = FUSION_DEFAULT_CAP
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

    # -- macro-tick fusion --------------------------------------------------

    def _fuse_abort(self, reason):
        counts = self.fusion_abort_reasons
        counts[reason] = counts.get(reason, 0) + 1

    def _try_fuse(self, stable, start, max_cycles):
        """Attempt a fused run for the lone woken component.

        The stability oracle: the wake set over the next ``budget``
        cycles is exactly {component} as long as no timer matures
        inside the silent window (m <= first_timer - now keeps the
        maturing cycle on the real-step path, where ``_step`` merges
        due timers itself), no watchdog / sampler / checkpoint hook
        point lands inside it (each fires when post-step ``now``
        reaches ``next_*``, so m <= next - now - 1), and the caller's
        cycle budget is not overrun (the real step must land within
        it: m <= start + max_cycles - 1 - now).  Channel deliveries
        need no engine-side clamp: a silent cycle by definition makes
        no channel push, and pops are only allowed from channels with
        no space watchers, so no commit inside the window could wake
        anyone -- the component's own ``step_n`` guards enforce that
        (and return 0 otherwise).
        """
        component = next(iter(self._wake_next.values()))
        if component.step_n is None:
            self._fuse_abort("no_step_n")
            return
        if not stable:
            self._fuse_abort("unstable_done")
            return
        now = self.now
        budget = self._fusion_cap
        timers = self._timers
        if timers:
            h = timers[0][0] - now
            if h < budget:
                budget = h
        watchdog = self.watchdog
        if watchdog is not None:
            h = watchdog.next_check - now - 1
            if h < budget:
                budget = h
        sampler = self.sampler
        if sampler is not None:
            h = sampler.next_sample - now - 1
            if h < budget:
                budget = h
        checkpointer = self.checkpointer
        if checkpointer is not None:
            h = checkpointer.next_checkpoint - now - 1
            if h < budget:
                budget = h
        if max_cycles is not None:
            h = start + max_cycles - 1 - now
            if h < budget:
                budget = h
        if budget < 1:
            self._fuse_abort("horizon")
            return
        m = component.step_n(self, budget)
        if not m:
            self._fuse_abort("component")
            return
        # The m covered cycles each executed one tick of *component*
        # and would each have re-armed it for the next cycle (self
        # wake or its input channel's commit-time data wake); the
        # preserved _wake_next singleton feeds the real step that
        # follows.  Counter accounting keeps activity stats identical
        # to the per-cycle schedule.
        self.now = now + m
        self.cycles_simulated += m
        self.component_ticks += m
        component.ticks += m
        self.component_wakes += m
        component.wakes += m
        self.fused_runs += 1
        self.fused_cycles += m

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
            resume=False, stable_done=False):
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

        ``stable_done=True`` declares that *done()* can only flip as a
        result of a component tick's channel effects -- never during a
        provably silent cycle -- which licenses macro-tick fusion:
        runs of same-component silent cycles are advanced with one
        ``step_n`` call instead of n ticks.  Callers
        with time- or state-probing done() predicates must leave it
        False (fusion then skips their run, counted under
        ``fusion_abort_reasons["unstable_done"]``).  ``done=None``
        (run to global idle) is always stable: silent cycles cannot
        empty the wake set.
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
        fusion_cap = self._fusion_cap
        stable = done is None or stable_done
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
            if fusion_cap and len(self._wake_next) == 1:
                self._try_fuse(stable, start, max_cycles)
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

    # Execution-strategy bookkeeping inside activity(): how the engine
    # chose to advance time, not what the model computed.  These vary
    # with hook cadence (a checkpointer or sampler clamps fusion
    # horizons), so bit-identity contracts that compare runs across
    # hook configurations (replay, chaos) must exclude them; see
    # AcceleratorSystem._collect_stats.
    FUSION_BOOKKEEPING_KEYS = (
        "fused_runs", "fused_cycles", "mean_run_len",
        "fusion_abort_reasons",
    )

    def activity(self):
        """Scheduler-efficiency counters as a plain dict.

        The one reader of the engine's counters: ``EngineActivity``
        (:mod:`repro.core.stats`) and the telemetry summary's ``fusion``
        block build on it.  ``component_ticks`` versus ``cycles x
        components`` is the demand-driven win; ``cycles_skipped`` the
        idle fast-forward win; ``fused_runs``/``fused_cycles`` the
        macro-tick win.  The fusion keys are always present -- explicit
        zeros when nothing fused.
        """
        runs, cycles = self.fused_runs, self.fused_cycles
        aborts = getattr(self, "fusion_abort_reasons", None) or {}
        return {
            "cycles_simulated": self.cycles_simulated,
            "cycles_skipped": self.cycles_skipped,
            "component_ticks": self.component_ticks,
            "component_wakes": self.component_wakes,
            "n_components": len(self._components),
            "fused_runs": runs,
            "fused_cycles": cycles,
            "mean_run_len": round(cycles / runs, 2) if runs else 0.0,
            "fusion_abort_reasons": dict(sorted(aborts.items())),
        }

