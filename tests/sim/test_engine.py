"""Tests for the cycle engine: ticking, idle skip, deadlock detection."""

from collections import deque

import pytest

from repro.sim import Channel, Component, DeadlockError, Engine


class Producer(Component):
    """Pushes ``count`` integers, one per cycle while there is room."""

    def __init__(self, out, count):
        self.out = out
        self.count = count
        self.sent = 0

    def tick(self, engine):
        if self.sent < self.count and self.out.can_push():
            self.out.push(self.sent)
            self.sent += 1
        if self.sent < self.count:
            self.out.request_space_wake(self)

    def is_idle(self):
        return self.sent == self.count


class Consumer(Component):
    """Pops one token per cycle."""

    def __init__(self, inp):
        self.inp = inp
        self.received = []
        inp.subscribe_data(self)

    def tick(self, engine):
        if self.inp.can_pop():
            self.received.append(self.inp.pop())


class LatencyRelay(Component):
    """Holds each token from *inp* for *latency* cycles, then forwards it.

    It sleeps through the latency on a timer armed for each token.
    """

    def __init__(self, inp, latency, out):
        self.inp = inp
        self.latency = latency
        self.out = out
        self.held = deque()  # (ready_cycle, token)
        inp.subscribe_data(self)

    def tick(self, engine):
        if self.inp.can_pop():
            ready = engine.now + self.latency
            self.held.append((ready, self.inp.pop()))
            engine.wake_at(self, ready)
        held = self.held
        if held and held[0][0] <= engine.now:
            if self.out.can_push():
                self.out.push(held.popleft()[1])
            else:
                self.out.request_space_wake(self)


class TestEngine:
    def test_producer_consumer_transfers_all(self):
        engine = Engine()
        ch = engine.add_channel(Channel(4))
        producer = engine.add_component(Producer(ch, 10))
        consumer = engine.add_component(Consumer(ch))
        engine.run(done=lambda: len(consumer.received) == 10, max_cycles=100)
        assert consumer.received == list(range(10))
        assert producer.is_idle()

    def test_throughput_one_per_cycle(self):
        """A deep channel sustains one token per cycle after warm-up."""
        engine = Engine()
        ch = engine.add_channel(Channel(4))
        engine.add_component(Producer(ch, 100))
        consumer = engine.add_component(Consumer(ch))
        cycles = engine.run(done=lambda: len(consumer.received) == 100,
                            max_cycles=1000)
        # 100 tokens, 1-cycle pipeline fill: ~101 cycles.
        assert cycles <= 105

    def test_capacity_one_halves_throughput(self):
        """With capacity 1 and registered credit return, rate is 1/2."""
        engine = Engine()
        ch = engine.add_channel(Channel(1))
        engine.add_component(Producer(ch, 50))
        consumer = engine.add_component(Consumer(ch))
        cycles = engine.run(done=lambda: len(consumer.received) == 50,
                            max_cycles=1000)
        assert 95 <= cycles <= 105

    def test_idle_fast_forward_over_latency(self):
        """Cycles spent waiting on a long latency timer are skipped."""
        engine = Engine()
        inp = engine.add_channel(Channel(2))
        out = engine.add_channel(Channel(2))
        engine.add_component(LatencyRelay(inp, 500, out))
        consumer = engine.add_component(Consumer(out))
        inp.push("x")
        inp.commit()
        engine.run(done=lambda: len(consumer.received) == 1, max_cycles=2000)
        assert consumer.received == ["x"]
        assert engine.now >= 500
        assert engine.cycles_skipped > 400
        assert engine.cycles_simulated < 100

    def test_run_until_globally_idle(self):
        engine = Engine()
        ch = engine.add_channel(Channel(4))
        engine.add_component(Producer(ch, 5))
        consumer = engine.add_component(Consumer(ch))
        engine.run()  # no done(): run until idle
        assert consumer.received == list(range(5))

    def test_deadlock_detected(self):
        """A consumer-less full channel with unreachable done() deadlocks."""
        engine = Engine()
        ch = engine.add_channel(Channel(1))
        engine.add_component(Producer(ch, 5))
        with pytest.raises(DeadlockError):
            engine.run(done=lambda: False)

    def test_determinism(self):
        """Two identical systems produce identical cycle counts."""
        results = []
        for _ in range(2):
            engine = Engine()
            ch = engine.add_channel(Channel(3))
            engine.add_component(Producer(ch, 37))
            consumer = engine.add_component(Consumer(ch))
            cycles = engine.run(done=lambda: len(consumer.received) == 37,
                                max_cycles=10_000)
            results.append(cycles)
        assert results[0] == results[1]

    def test_max_cycles_bounds_run(self):
        engine = Engine()
        ch = engine.add_channel(Channel(1))
        engine.add_component(Producer(ch, 10**9))
        engine.add_component(Consumer(ch))
        cycles = engine.run(done=lambda: False, max_cycles=50)
        assert cycles == 50
