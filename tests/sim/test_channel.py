"""Unit and property tests for Channel and DelayLine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Channel, DelayLine, Engine


def engine_with_channel(capacity):
    engine = Engine()
    channel = engine.add_channel(Channel(capacity, name="t"))
    return engine, channel


class TestChannel:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Channel(0)

    def test_push_not_visible_same_cycle(self):
        _, ch = engine_with_channel(4)
        ch.push("a")
        assert not ch.can_pop()

    def test_push_visible_after_commit(self):
        _, ch = engine_with_channel(4)
        ch.push("a")
        ch.commit()
        assert ch.can_pop()
        assert ch.front() == "a"
        assert ch.pop() == "a"

    def test_fifo_order(self):
        _, ch = engine_with_channel(8)
        for i in range(5):
            ch.push(i)
        ch.commit()
        assert [ch.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_capacity_blocks_push(self):
        _, ch = engine_with_channel(2)
        ch.push(1)
        ch.push(2)
        assert not ch.can_push()
        with pytest.raises(OverflowError):
            ch.push(3)

    def test_pop_frees_slot_only_next_cycle(self):
        """Registered capacity: a pop in cycle t frees the slot at t+1."""
        _, ch = engine_with_channel(1)
        ch.push(1)
        ch.commit()
        assert ch.pop() == 1
        # Same cycle: slot not yet reusable.
        assert not ch.can_push()
        ch.commit()
        assert ch.can_push()

    def test_pending_counts_staged_and_ready(self):
        _, ch = engine_with_channel(4)
        ch.push(1)
        assert ch.pending == 1
        assert len(ch) == 0
        ch.commit()
        assert ch.pending == 1
        assert len(ch) == 1

    def test_push_registers_channel_for_commit(self):
        engine, ch = engine_with_channel(4)
        ch.push(1)
        ch.push(2)
        assert engine._dirty_channels == [ch]

    @given(st.lists(st.integers(), max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_everything_pushed_is_popped_in_order(self, items):
        """Property: channel is a lossless FIFO across arbitrary cycles."""
        _, ch = engine_with_channel(max(len(items), 1))
        for item in items:
            ch.push(item)
        ch.commit()
        out = []
        while ch.can_pop():
            out.append(ch.pop())
        assert out == items


class TestPushManyBoundaries:
    def test_exactly_full_is_accepted(self):
        _, ch = engine_with_channel(4)
        assert ch.can_push_n(4)
        ch.push_many([1, 2, 3, 4])
        assert ch.pending == 4
        assert not ch.can_push()
        assert ch.free_slots() == 0

    def test_zero_count_is_a_noop_even_when_full(self):
        _, ch = engine_with_channel(2)
        ch.push_many([1, 2])
        assert ch.can_push_n(0)
        ch.push_many([])  # must not raise on a full channel
        assert ch.pending == 2
        assert ch.total_pushed == 2

    def test_over_capacity_raises_and_leaves_channel_unchanged(self):
        _, ch = engine_with_channel(3)
        ch.push(1)
        assert not ch.can_push_n(3)
        with pytest.raises(OverflowError):
            ch.push_many([2, 3, 4])
        assert ch.pending == 1
        assert ch.total_pushed == 1

    def test_boundary_counts_one_around_capacity(self):
        _, ch = engine_with_channel(5)
        assert ch.can_push_n(5)
        assert not ch.can_push_n(6)
        ch.push_many([0] * 4)
        assert ch.can_push_n(1)
        assert not ch.can_push_n(2)

    def test_staged_plus_visible_count_against_capacity(self):
        """Registered occupancy: visible tokens and staged pushes share
        the capacity budget within a cycle."""
        _, ch = engine_with_channel(4)
        ch.push_many([1, 2])
        ch.commit()
        ch.push_many([3, 4])  # 2 visible + 2 staged = exactly full
        assert not ch.can_push_n(1)
        with pytest.raises(OverflowError):
            ch.push_many([5])


class TestThrottle:
    def test_throttle_blocks_pushes_and_restore_reopens(self):
        _, ch = engine_with_channel(4)
        ch.push(1)
        ch.throttle(0)
        assert not ch.can_push()
        assert not ch.can_push_n(1)
        with pytest.raises(OverflowError):
            ch.push(2)
        ch.restore()
        assert ch.capacity == 4
        assert ch.can_push()

    def test_tokens_in_flight_survive_a_throttle_window(self):
        _, ch = engine_with_channel(2)
        ch.push_many([1, 2])
        ch.commit()
        ch.throttle(0)
        assert ch.pop() == 1
        assert ch.pop() == 2
        ch.restore()
        ch.validate()

    def test_restore_is_idempotent(self):
        _, ch = engine_with_channel(3)
        ch.restore()  # never throttled: no-op
        assert ch.capacity == 3
        ch.throttle(0)
        ch.throttle(0)
        ch.restore()
        ch.restore()
        assert ch.capacity == 3

    def test_validate_flags_overfull_channel(self):
        _, ch = engine_with_channel(2)
        ch.validate()
        ch._visible = 3  # corrupt the ring accounting deliberately
        with pytest.raises(AssertionError):
            ch.validate()


class TestDelayLine:
    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            DelayLine(0)

    def test_latency_respected(self):
        engine = Engine()
        line = engine.add_delay_line(DelayLine(3))
        line.push("x")
        for _ in range(3):
            assert not line.can_pop()
            engine._step()
        assert line.can_pop()
        assert line.pop() == "x"

    def test_next_event_time(self):
        engine = Engine()
        line = engine.add_delay_line(DelayLine(5))
        assert line.next_event_time() is None
        line.push("x")
        assert line.next_event_time() == 5

    def test_fifo_across_pushes_in_different_cycles(self):
        engine = Engine()
        line = engine.add_delay_line(DelayLine(2))
        line.push("a")
        engine._step()
        line.push("b")
        engine._step()
        assert line.pop() == "a"
        assert not line.can_pop()
        engine._step()
        assert line.pop() == "b"

    def test_pop_before_ready_raises(self):
        engine = Engine()
        line = engine.add_delay_line(DelayLine(2))
        line.push("a")
        with pytest.raises(IndexError):
            line.pop()
