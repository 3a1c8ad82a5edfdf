"""Unit and property tests for Channel."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Channel, Engine, MomsRequest, MomsResponse
from repro.sim.engine import Component


class _Token:
    """A weakly referenceable token."""


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

    def test_popped_token_is_released(self):
        """A pop clears its slot: the channel keeps no popped token alive."""
        _, ch = engine_with_channel(4)
        token = _Token()
        ref = weakref.ref(token)
        ch.push(token)
        ch.commit()
        assert ch.pop() is token
        del token
        gc.collect()
        assert ref() is None

    def test_pop_many_releases_tokens_across_wraparound(self):
        _, ch = engine_with_channel(4)
        for i in range(3):  # move the head so the next batch wraps
            ch.push(i)
        ch.commit()
        ch.pop_many()
        ch.commit()
        tokens = [_Token() for _ in range(4)]
        refs = [weakref.ref(token) for token in tokens]
        ch.push_many(tokens)
        ch.commit()
        assert ch.pop_many() == tokens
        del tokens
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

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

    def test_push_many_checks_capacity_once(self):
        """A batch of request objects that overflows is refused whole:
        none of its leading entries are staged."""
        _, ch = engine_with_channel(2)
        with pytest.raises(OverflowError):
            ch.push_many([MomsRequest(0, 4), MomsRequest(4, 4),
                          MomsRequest(8, 4)])
        assert ch.pending == 0
        assert ch.total_pushed == 0

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


class TestThrottleInteraction:
    def test_throttle_blocks_new_pushes_but_not_inflight_pops(self):
        _, ch = engine_with_channel(4)
        ch.push_request(0, 4, "a", 0)
        ch.push_request(4, 4, "b", 1)
        ch.commit()
        ch.throttle(0)
        assert not ch.can_push()
        with pytest.raises(OverflowError):
            ch.push_request(8, 4, "c", 2)
        assert ch.pop().req_id == "a"
        assert ch.pop().req_id == "b"
        ch.restore()
        assert ch.capacity == 4
        ch.validate()

    def test_throttle_above_base_grows_ring_preserving_order(self):
        _, ch = engine_with_channel(2)
        # Rotate the ring first so _head != 0 when the ring grows.
        ch.push_request(0, 4, "x", 0)
        ch.commit()
        assert ch.pop().req_id == "x"
        ch.commit()
        ch.push_request(10, 4, "a", 1)
        ch.push_request(20, 4, "b", 2)
        ch.commit()
        ch.throttle(6)  # larger than the base power-of-two ring
        for index in range(4):
            ch.push_request(30 + index, 4, ("new", index), 3)
        ch.commit()
        ids = [ch.pop().req_id for _ in range(6)]
        assert ids == ["a", "b", ("new", 0), ("new", 1),
                       ("new", 2), ("new", 3)]

    def test_wraparound_then_throttle_then_restore(self):
        _, ch = engine_with_channel(2)
        for spin in range(3):  # wrap the 2-slot ring
            ch.push_request(spin, 4, spin, 0)
            ch.commit()
            assert ch.pop().req_id == spin
            ch.commit()
        ch.push_request(99, 4, "keep", 0)
        ch.commit()
        ch.throttle(0)
        assert not ch.can_push()
        assert ch.front_request()[2] == "keep"
        ch.restore()
        assert ch.can_push()
        assert ch.pop().req_id == "keep"
        ch.validate()


class TestFieldsRoundTrip:
    def test_request_fields_survive_ring_wraparound(self):
        _, ch = engine_with_channel(4)
        # Cycle tokens through repeatedly so _head wraps the ring.
        for round_index in range(10):
            for lane in range(3):
                ch.push_request(4 * (round_index + lane), 4,
                                ("id", round_index, lane), lane)
            ch.commit()
            for lane in range(3):
                addr, size, req_id, port = ch.front_request()
                ch.pop()
                assert addr == 4 * (round_index + lane)
                assert size == 4
                assert req_id == ("id", round_index, lane)
                assert port == lane
            ch.commit()

    def test_response_fields_survive_ring_wraparound(self):
        _, ch = engine_with_channel(2)
        for index in range(9):
            payload = bytes([index])
            ch.push_response(index, 64 + index, payload, index % 4)
            ch.commit()
            req_id, addr, data, port = ch.front_response()
            assert (req_id, addr, data, port) == (
                index, 64 + index, payload, index % 4
            )
            ch.pop()
            ch.commit()

    def test_pop_line_returns_addr_and_data(self):
        _, ch = engine_with_channel(2)
        ch.push_response(None, 128, b"\x01\x02", 0)
        ch.commit()
        assert ch.pop_line() == (128, b"\x01\x02")

    def test_pop_line_recycles_across_ring_wraparound(self):
        """The ring slots are reused as the 2-slot ring wraps; every
        line still comes out with its own fields."""
        _, ch = engine_with_channel(2)
        for index in range(9):
            ch.push_response(index, 64 * index, bytes([index]), 0)
            ch.commit()
            assert ch.pop_line() == (64 * index, bytes([index]))
            ch.commit()

    def test_object_push_pops_as_request_fields(self):
        _, ch = engine_with_channel(4)
        ch.push(MomsRequest(24, 4, req_id=7, port=2))
        ch.commit()
        assert ch.front_request() == (24, 4, 7, 2)

    def test_fields_push_pops_as_response_object(self):
        _, ch = engine_with_channel(4)
        ch.push_response(9, 48, b"\xff", 1)
        ch.commit()
        token = ch.front()
        assert isinstance(token, MomsResponse)
        assert (token.req_id, token.addr, token.data, token.port) \
            == (9, 48, b"\xff", 1)
        assert ch.pop_many() == [token]


class Waker(Component):
    """Records its ticks; demand-driven so commits can wake it."""

    def __init__(self):
        self.ticked = 0

    def tick(self, engine):
        self.ticked += 1


class TestSpaceWakeOneShots:
    def _engine_with(self, channel):
        engine = Engine()
        engine.add_channel(channel)
        waker = engine.add_component(Waker())
        return engine, waker

    def test_request_space_wake_fires_once_when_space_frees(self):
        ch = Channel(1, name="t")
        engine, waker = self._engine_with(ch)
        ch.push_request(0, 4, "a", 0)
        engine._step()  # commit: channel full, no space wake
        ch.request_space_wake(waker)
        engine._step()  # full channel committed nothing: no wake yet
        assert waker.ticked == 0
        ch.pop()
        engine._step()  # pop commits -> space -> one-shot fires
        engine._step()  # waker ticks
        assert waker.ticked == 1
        engine._step()
        engine._step()
        assert waker.ticked == 1  # one-shot: no re-fire
        assert ch._space_requests == []

    def test_data_subscription_wakes_on_visible_tokens(self):
        ch = Channel(2, name="t")
        engine, waker = self._engine_with(ch)
        ch.subscribe_data(waker)
        ch.push_request(0, 4, "a", 0)
        engine._step()  # commit makes the token visible, wakes
        engine._step()  # tick
        assert waker.ticked == 1

    def test_request_space_wake_armed_in_the_popping_cycle(self):
        ch = Channel(1, name="t")
        engine, waker = self._engine_with(ch)
        ch.push_request(0, 4, "a", 0)
        engine._step()
        ch.request_space_wake(waker)
        ch.pop()
        engine._step()
        engine._step()
        assert waker.ticked == 1
