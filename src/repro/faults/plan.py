"""Seeded, deterministic fault plans for the simulation core.

A :class:`FaultPlan` describes *when* and *where* to perturb the
system; :func:`install_faults` wires it into a built
:class:`~repro.accel.system.AcceleratorSystem`.  Three fault families
map onto the three structures whose request-lifecycle corner cases the
paper's memory system lives or dies on:

* **DRAM** (:class:`~repro.mem.dram.DramChannel`): transient latency
  spikes, bounded response reorder (adjacent responses bound for
  *different* requesters swap delivery order -- each requester's own
  stream stays FIFO, so no protocol is violated), and temporary channel
  blackouts during which the channel neither accepts nor delivers.
* **Channels** (:class:`~repro.sim.channel.Channel`): backpressure
  bursts, implemented by clamping the channel's effective capacity to
  zero for a window.  Every producer in the code base -- including the
  arbiters and crossbars that inline their capacity checks -- reads
  ``capacity``, so the clamp is honoured uniformly and nothing can
  overflow.
* **MSHR files**: forced-full windows during which ``insert`` reports
  failure without touching table or PRNG state, exercising the paper's
  stall/retry path at will.

All windows are plain periodic ``(period, duration, phase)`` triples
and all randomness is a seeded splitmix64 chain, so a faulted run is a
deterministic function of (workload, plan): the same plan always
produces the same cycle count.

Faults are *recoverable by construction*: they delay and reorder work
but never drop or duplicate a token, so a run under any plan completes
with functionally correct results (bit-identical for the idempotent
integer algorithms; see ``tests/faults``).  The one deliberate
exception is the **mutation smoke** fault, which corrupts one response
token's ID so tests can prove the invariant ledger catches real
corruption instead of merely being plumbed through.
"""

from dataclasses import dataclass

from repro.sim import Component

_MASK64 = (1 << 64) - 1


def _splitmix64(state):
    """One step of the splitmix64 sequence; returns (new_state, value)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


@dataclass(frozen=True)
class Window:
    """A periodic fault window: active ``duration`` out of every
    ``period`` cycles, starting at ``phase``."""

    period: int
    duration: int
    phase: int = 0

    def __post_init__(self):
        if self.period < 1 or not 0 < self.duration < self.period:
            raise ValueError("need 0 < duration < period")

    def active(self, now):
        if now < self.phase:
            return False
        return (now - self.phase) % self.period < self.duration

    def next_boundary(self, now):
        """First cycle > now at which active() changes value."""
        if now < self.phase:
            return self.phase
        offset = (now - self.phase) % self.period
        if offset < self.duration:
            return now + (self.duration - offset)
        return now + (self.period - offset)


@dataclass
class FaultPlan:
    """Declarative fault schedule; see the module docstring.

    ``backpressure_fraction`` selects the seeded subset of eligible
    channels to throttle; the ``jobs``/``done`` scheduler channels are
    never throttled because their producers push unconditionally (their
    capacity is sized to the PE count by construction).
    """

    seed: int = 1
    dram_latency: Window = None
    dram_extra_latency: int = 250
    dram_blackout: Window = None
    dram_reorder_permille: int = 0  # per scheduled response, out of 1000
    backpressure: Window = None
    backpressure_fraction: float = 0.3
    mshr_full: Window = None
    mutate_moms_response_at: int = None  # nth drained response is corrupted

    # -- canned plans (the CI smoke matrix) ---------------------------------

    @classmethod
    def dram_plan(cls, seed=1):
        """Latency spikes + a blackout + bounded reorder on every channel."""
        return cls(
            seed=seed,
            dram_latency=Window(4096, 512, phase=257),
            dram_extra_latency=250,
            dram_blackout=Window(40_000, 1500, phase=11_003),
            dram_reorder_permille=200,
        )

    @classmethod
    def channel_plan(cls, seed=1):
        """Backpressure bursts on a seeded third of the interconnect."""
        return cls(seed=seed, backpressure=Window(2048, 256, phase=129))

    @classmethod
    def mshr_plan(cls, seed=1):
        """Forced-full MSHR windows (the paper's stall/retry path)."""
        return cls(seed=seed, mshr_full=Window(3072, 384, phase=517))

    @classmethod
    def mutation_plan(cls, at=100, seed=1):
        """Corrupt the ``at``-th MOMS response token (ledger smoke)."""
        return cls(seed=seed, mutate_moms_response_at=at)


NAMED_PLANS = {
    "dram": FaultPlan.dram_plan,
    "channel": FaultPlan.channel_plan,
    "mshr": FaultPlan.mshr_plan,
}


class FaultState:
    """Per-system runtime state shared by every fault hook.

    One instance is attached (as ``_fault``) to the DRAM channels, MSHR
    files, and banks a plan targets; the hooks call the narrow methods
    below.  Deterministic: all decisions derive from the cycle counter
    and the seeded splitmix chain.
    """

    def __init__(self, plan, engine):
        self.plan = plan
        self.engine = engine
        self._reorder_state = (plan.seed * 0x9E3779B97F4A7C15) & _MASK64 or 1
        self._drains_seen = 0
        self.stats = {
            "latency_spiked_requests": 0,
            "reorders": 0,
            "blackout_cycles_entered": 0,
            "backpressure_windows": 0,
            "mshr_forced_failures": 0,
            "mutations": 0,
        }

    # -- DRAM hooks ---------------------------------------------------------

    def dram_extra_latency(self, now):
        window = self.plan.dram_latency
        if window is not None and window.active(now):
            self.stats["latency_spiked_requests"] += 1
            return self.plan.dram_extra_latency
        return 0

    def dram_blackout_until(self, now):
        """End cycle of an active blackout window, or 0."""
        window = self.plan.dram_blackout
        if window is not None and window.active(now):
            self.stats["blackout_cycles_entered"] += 1
            return window.next_boundary(now)
        return 0

    def dram_maybe_reorder(self, scheduled):
        """Swap the payloads of the two newest scheduled responses.

        Ready times stay in place (the schedule remains monotonic); only
        the (response, respond_to) payloads swap, and only when the two
        entries target different requesters -- each requester's own
        response stream therefore stays in order, which is the bound the
        PEs are designed for (beats interleave across channels anyway).
        """
        permille = self.plan.dram_reorder_permille
        if not permille or len(scheduled) < 2:
            return
        self._reorder_state, value = _splitmix64(self._reorder_state)
        if value % 1000 >= permille:
            return
        t_prev, resp_prev, to_prev = scheduled[-2]
        t_new, resp_new, to_new = scheduled[-1]
        if to_prev is None or to_new is None or to_prev is to_new:
            return
        scheduled[-2] = (t_prev, resp_new, to_new)
        scheduled[-1] = (t_new, resp_prev, to_prev)
        self.stats["reorders"] += 1

    # -- MSHR hook ----------------------------------------------------------

    def mshr_blocked(self):
        window = self.plan.mshr_full
        if window is not None and window.active(self.engine.now):
            self.stats["mshr_forced_failures"] += 1
            return True
        return False

    # -- mutation smoke -----------------------------------------------------

    def corrupt_moms_token(self, req_id):
        """Flip the nth drained response's ID to an impossible value."""
        self._drains_seen += 1
        if self._drains_seen == self.plan.mutate_moms_response_at:
            self.stats["mutations"] += 1
            return (req_id if isinstance(req_id, int) else 0) | (1 << 30)
        return req_id


class FaultController(Component):
    """Drives window transitions that need an active participant.

    Backpressure clamps/restores channel capacities at window edges,
    wakes the banks asleep in a hopeless MSHR retry as it clamps, and
    re-wakes the producers that went to sleep on a throttled channel;
    MSHR windows re-wake the banks whose forced-full stall was
    idempotent (associative files sleep instead of retrying).  DRAM
    faults need no controller: the channel model self-arms around its
    own blackout and latency state.
    """

    def __init__(self, state, throttled, banks):
        self.state = state
        self.throttled = throttled  # channels selected for backpressure
        self.banks = banks
        self._backpressure_on = False

    def _wake_channel_waiters(self, engine, channel):
        if channel._space_requests:
            for component in channel._space_requests:
                engine.wake(component)
            channel._space_requests.clear()

    def tick(self, engine):
        plan = self.state.plan
        now = engine.now
        next_events = []
        window = plan.backpressure
        if window is not None and self.throttled:
            active = window.active(now)
            if active and not self._backpressure_on:
                for channel in self.throttled:
                    channel.throttle(0)
                # A bank asleep in a hopeless MSHR retry assumes its
                # downstream port keeps accepting.  This controller
                # ticks after every bank (install_faults adds it last),
                # so a bank woken now ticks on the first cycle whose
                # retry sees the throttle.
                for bank in self.banks:
                    if bank._spin_since is not None:
                        engine.wake(bank)
                self.state.stats["backpressure_windows"] += 1
                self._backpressure_on = True
            elif not active and self._backpressure_on:
                for channel in self.throttled:
                    channel.restore()
                    self._wake_channel_waiters(engine, channel)
                self._backpressure_on = False
            next_events.append(window.next_boundary(now))
        window = plan.mshr_full
        if window is not None:
            boundary = window.next_boundary(now)
            if window.active(now):
                # Banks whose forced-full stall was idempotent sleep
                # through the window; arm them for its closing cycle so
                # the retry lands on the first cycle inserts can pass.
                for bank in self.banks:
                    engine.wake_at(bank, boundary)
            else:
                # A window just closed (or is yet to open): re-arm the
                # banks so the retry happens promptly.
                for bank in self.banks:
                    engine.wake(bank)
            next_events.append(boundary)
        for event in next_events:
            engine.wake_at(self, event)

    def is_idle(self):
        return not self._backpressure_on


_SAFE_THROTTLE_EXCLUDE = ("jobs", "done")


def _select_throttled(plan, engine):
    """Seeded subset of channels eligible for backpressure."""
    if plan.backpressure is None:
        return []
    state = (plan.seed * 0x2545F4914F6CDD1D) & _MASK64 or 1
    selected = []
    cut = int(plan.backpressure_fraction * 1000)
    for channel in engine._channels:
        if channel.name in _SAFE_THROTTLE_EXCLUDE:
            continue
        state, value = _splitmix64(state)
        if value % 1000 < cut:
            selected.append(channel)
    return selected


def install_faults(system, plan):
    """Attach *plan* to a built system; returns the FaultState.

    Must run before ``system.run()``: it appends the fault controller
    component and sets the ``_fault`` hooks on the targeted DRAM
    channels, MSHR files, and banks.
    """
    engine = system.engine
    state = FaultState(plan, engine)
    if (plan.dram_latency is not None or plan.dram_blackout is not None
            or plan.dram_reorder_permille):
        for channel in system.mem.channels:
            channel._fault = state
    banks = list(system.hierarchy.banks)
    if plan.mshr_full is not None:
        for bank in banks:
            bank.mshrs._fault = state
    if plan.mutate_moms_response_at is not None:
        for bank in banks:
            bank._fault = state
    throttled = _select_throttled(plan, engine)
    if throttled or plan.mshr_full is not None:
        controller = FaultController(state, throttled, banks)
        engine.add_component(controller)
        state.controller = controller
    system.fault_state = state
    return state
