"""Tests for die-crossing logic (paper Fig. 5 semantics)."""

from collections import deque

import pytest

from repro.fabric import DieCrossing
from repro.fabric.crossing import cross_link
from repro.sim import Channel, Component, Engine


def build(hops=1, out_capacity=4):
    engine = Engine()
    inp = engine.add_channel(Channel(8, name="in"))
    out = engine.add_channel(Channel(out_capacity, name="out"))
    crossing = DieCrossing(engine, inp, out, hops=hops)
    return engine, inp, out, crossing


class TestDieCrossing:
    def test_rejects_small_receive_queue(self):
        engine = Engine()
        inp = engine.add_channel(Channel(8))
        out = engine.add_channel(Channel(2))
        with pytest.raises(ValueError):
            DieCrossing(engine, inp, out)

    def test_rejects_zero_hops(self):
        engine = Engine()
        inp = engine.add_channel(Channel(8))
        out = engine.add_channel(Channel(8))
        with pytest.raises(ValueError):
            DieCrossing(engine, inp, out, hops=0)

    def test_adds_two_cycles_per_hop(self):
        for hops, minimum in [(1, 3), (2, 5)]:
            engine, inp, out, crossing = build(hops=hops, out_capacity=8)
            assert crossing.next_event_time() is None
            inp.push("x")
            engine._step()  # commit: "x" visible at cycle 1
            engine._step()  # cycle 1: "x" enters the registers
            assert crossing.next_event_time() == 1 + 2 * hops
            assert crossing.pending == 1
            engine.run(done=lambda: out.can_pop(), max_cycles=50)
            # push visible (1) + 2*hops register stages + out commit (1)
            assert engine.now >= 2 * hops + 1
            assert out.pop() == "x"

    def test_sustains_full_throughput(self):
        """A registered crossing still moves one token per cycle."""
        engine, inp, out, _ = build(out_capacity=8)
        sent = 0
        received = 0
        for cycle in range(120):
            if sent < 100 and inp.can_push():
                inp.push(sent)
                sent += 1
            while out.can_pop():
                out.pop()
                received += 1
            engine._step()
        assert received >= 95

    def test_never_overflows_receive_queue(self):
        """Tokens in flight always fit: nothing is lost if consumer stalls."""
        engine, inp, out, crossing = build(out_capacity=4)
        pushed = 0
        for _ in range(30):
            if inp.can_push():
                inp.push(pushed)
                pushed += 1
            engine._step()
        # Consumer never popped; everything must be queued, none dropped.
        in_flight = crossing.pending + out.pending + inp.pending
        assert in_flight == pushed
        # Now drain and verify order.
        received = []
        for _ in range(60):
            while out.can_pop():
                received.append(out.pop())
            engine._step()
        assert received == list(range(pushed))

    def test_preserves_order(self):
        engine, inp, out, _ = build(out_capacity=16)
        items = list(range(10))
        received = []
        to_send = list(items)
        for _ in range(60):
            if to_send and inp.can_push():
                inp.push(to_send.pop(0))
            while out.can_pop():
                received.append(out.pop())
            engine._step()
        assert received == items

    def test_admission_independent_of_registration_order(self):
        """Credits read the receive queue's registered occupancy.

        A consumer ticked before the crossing pops in the same cycle;
        registered channels make that pop invisible to the crossing's
        credit check, so every token enters the registers on the same
        cycle whichever of the two is registered first.
        """
        assert _entry_cycles(crossing_first=False) == \
            _entry_cycles(crossing_first=True)


class _Source(Component):
    """Pushes tokens 0..n-1 into *out* as fast as it has space."""

    def __init__(self, out, n):
        self.out = out
        self.n = n
        self.sent = 0

    def tick(self, engine):
        if self.sent < self.n and self.out.can_push():
            self.out.push(self.sent)
            self.sent += 1
        if self.sent < self.n:
            engine.wake(self)


class _EvenSink(Component):
    """Pops one token on every even cycle."""

    def __init__(self, inp):
        self.inp = inp
        self.received = []

    def tick(self, engine):
        if engine.now % 2 == 0 and self.inp.can_pop():
            self.received.append(self.inp.pop())
        engine.wake(self)


def _entry_cycles(crossing_first, n=12):
    """Cycle at which each token entered the crossing's registers."""
    engine = Engine()
    inp = engine.add_channel(Channel(2, name="in"))
    out = engine.add_channel(Channel(4, name="out"))
    engine.add_component(_Source(inp, n))
    sink = _EvenSink(out)
    if crossing_first:
        crossing = DieCrossing(engine, inp, out, hops=1)
        engine.add_component(sink)
    else:
        engine.add_component(sink)
        crossing = DieCrossing(engine, inp, out, hops=1)
    cycles = []

    class RecordingRegs(deque):
        def append(self, entry):
            cycles.append(engine.now)
            super().append(entry)

    crossing._regs = RecordingRegs()
    engine.run(done=lambda: len(sink.received) == n, max_cycles=500)
    assert sink.received == list(range(n))
    return cycles


class TestCrossLink:
    def test_zero_hops_is_plain_channel(self):
        engine = Engine()
        a, b = cross_link(engine, 4, hops=0)
        assert a is b

    def test_one_hop_builds_crossing(self):
        engine = Engine()
        a, b = cross_link(engine, 4, hops=1)
        assert a is not b
        a.push("t")
        engine.run(done=lambda: b.can_pop(), max_cycles=20)
        assert b.pop() == "t"
