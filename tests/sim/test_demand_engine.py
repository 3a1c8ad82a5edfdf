"""Demand-driven engine: wake semantics and batched pushes.

The engine must (a) skip ticks that are provably no-ops, (b) never
skip a tick that could make progress, and (c) therefore produce the
cycle trajectory of ticking every component every cycle.
"""

import pytest

from repro.sim import Channel, Component, DelayLine
from repro.sim.engine import Engine


class CountingProducer(Component):
    """Pushes *total* tokens, one per cycle, whenever there is room."""

    def __init__(self, engine, channel, total):
        self.channel = channel
        self.remaining = total
        engine.add_component(self)

    def tick(self, engine):
        if self.remaining and self.channel.can_push():
            self.channel.push(self.remaining)
            self.remaining -= 1
        if self.remaining:
            self.channel.request_space_wake(self)

    def is_idle(self):
        return self.remaining == 0


class CountingConsumer(Component):
    def __init__(self, engine, channel):
        self.channel = channel
        self.received = []
        engine.add_component(self)
        channel.subscribe_data(self)

    def tick(self, engine):
        if self.channel.can_pop():
            self.received.append(self.channel.pop())


def build_pipeline(engine, total=20, capacity=4):
    channel = engine.add_channel(Channel(capacity, name="pipe"))
    producer = CountingProducer(engine, channel, total)
    consumer = CountingConsumer(engine, channel)
    return producer, consumer


class TestDemandWakes:
    def test_transfers_everything_in_order(self):
        engine = Engine()
        producer, consumer = build_pipeline(engine, total=20)
        engine.run(done=lambda: len(consumer.received) == 20,
                   max_cycles=500)
        assert consumer.received == list(range(20, 0, -1))

    def test_matches_legacy_cycle_for_cycle(self):
        """The all-tick reference engine (both components ticked every
        cycle) delivered the 20th token on cycle 20; demand scheduling
        must land on the same cycle."""
        engine = Engine()
        producer, consumer = build_pipeline(engine, total=20)
        engine.run(done=lambda: len(consumer.received) == 20,
                   max_cycles=500)
        assert engine.now == 21
        # The producer ticks on the 20 cycles it pushes (its one-shot
        # space wake is not re-armed after the last), the consumer on
        # all 21.
        assert engine.component_ticks == 41

    def test_demand_engine_skips_ticks(self):
        # A consumer blocked on an empty channel must not be ticked
        # while a slow producer trickles tokens through a delay line.
        engine = Engine()
        line = engine.add_delay_line(DelayLine(50, name="slow"))
        channel = engine.add_channel(Channel(4, name="out"))
        consumer = CountingConsumer(engine, channel)

        class Refiller(Component):
            def __init__(self):
                self.sent = 0
                engine.add_component(self)
                line.subscribe_data(self)

            def tick(self, eng):
                while line.can_pop():
                    channel.push(line.pop())
                if self.sent < 3 and not line.pending:
                    line.push(self.sent)
                    self.sent += 1

            def is_idle(self):
                return self.sent == 3

        refiller = Refiller()
        engine.wake(refiller)
        engine.run(done=lambda: len(consumer.received) == 3,
                   max_cycles=1000)
        # ~150 cycles of latency were covered; the consumer must have
        # ticked only around actual deliveries, not every cycle.
        assert engine.now >= 150
        assert consumer.ticks < 20
        assert engine.component_ticks < engine.now

    def test_wake_at_past_or_present_ticks_next_cycle(self):
        engine = Engine()
        ticked = []

        class Probe(Component):
            def tick(self, eng):
                ticked.append(eng.now)

        probe = engine.add_component(Probe())
        engine.wake_at(probe, 5)
        # Drive with _step (run() would pre-wake every demand component).
        for _ in range(8):
            engine._step()
        assert ticked == [5]

    def test_request_wake_outside_tick(self):
        engine = Engine()
        ticked = []

        class Probe(Component):
            def tick(self, eng):
                ticked.append(eng.now)

        probe = engine.add_component(Probe())
        probe.request_wake()
        engine._step()
        assert ticked == [0]


class TestPushMany:
    def make(self):
        engine = Engine()
        channel = engine.add_channel(Channel(4, name="bulk"))
        return engine, channel

    def test_not_visible_until_commit(self):
        engine, channel = self.make()
        channel.push_many([1, 2, 3])
        assert not channel.can_pop()
        assert channel.pending == 3
        channel.commit()
        assert [channel.pop() for _ in range(3)] == [1, 2, 3]

    def test_capacity_checked_as_a_block(self):
        engine, channel = self.make()
        channel.push(0)
        assert channel.can_push_n(3)
        assert not channel.can_push_n(4)
        with pytest.raises(OverflowError):
            channel.push_many([1, 2, 3, 4])
        # The failed bulk push must not have staged anything.
        assert channel.pending == 1

    def test_empty_push_many_is_a_noop(self):
        engine, channel = self.make()
        channel.push_many([])
        assert channel.pending == 0
        assert not channel._dirty

    def test_wakes_data_subscriber_once(self):
        engine, channel = self.make()
        consumer = CountingConsumer(engine, channel)
        channel.push_many([7, 8])
        channel.commit()
        assert engine._wake_next == {consumer._engine_order: consumer}

    def test_equivalent_to_single_pushes(self):
        for batched in (False, True):
            engine = Engine()
            channel = engine.add_channel(Channel(8))
            if batched:
                channel.push_many([1, 2, 3])
            else:
                for item in (1, 2, 3):
                    channel.push(item)
            channel.commit()
            assert len(channel) == 3
            assert channel.free_slots() == 5

