"""SoA channel columns: wraparound, throttle interaction, wake one-shots."""

import pytest

from repro.core.messages import MomsRequest, MomsResponse
from repro.sim import Channel, Engine, SoaChannel
from repro.sim.engine import Component


def make_soa(capacity, kind="request"):
    engine = Engine()
    channel = engine.add_channel(SoaChannel(capacity, name="soa", kind=kind))
    return engine, channel


class Waker(Component):
    """Records its ticks; demand-driven so commits can wake it."""

    def __init__(self):
        self.ticked = 0

    def tick(self, engine):
        self.ticked += 1


class TestFieldsRoundTrip:
    def test_request_fields_survive_ring_wraparound(self):
        _, ch = make_soa(4)
        # Cycle tokens through repeatedly so _head wraps the ring.
        for round_index in range(10):
            for lane in range(3):
                ch.push_request(4 * (round_index + lane), 4,
                                ("id", round_index, lane), lane)
            ch.commit()
            for lane in range(3):
                addr, size, req_id, port = ch.pop_request()
                assert addr == 4 * (round_index + lane)
                assert size == 4
                assert req_id == ("id", round_index, lane)
                assert port == lane
            ch.commit()

    def test_response_fields_survive_ring_wraparound(self):
        _, ch = make_soa(2, kind="response")
        for index in range(9):
            payload = bytes([index])
            ch.push_response(index, 64 + index, payload, index % 4)
            ch.commit()
            req_id, addr, data, port = ch.front_response()
            assert (req_id, addr, data, port) == (
                index, 64 + index, payload, index % 4
            )
            ch.drop()
            ch.commit()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SoaChannel(4, kind="beat")

    def test_pop_line_returns_addr_and_data(self):
        _, ch = make_soa(2, kind="response")
        ch.push_response(None, 128, b"\x01\x02", 0)
        ch.commit()
        assert ch.pop_line() == (128, b"\x01\x02")


class TestObjectCompat:
    def test_object_push_and_pop_rebuild_equal_requests(self):
        _, ch = make_soa(4)
        ch.push(MomsRequest(24, 4, req_id=7, port=2))
        ch.commit()
        token = ch.pop()
        assert isinstance(token, MomsRequest)
        assert (token.addr, token.size, token.req_id, token.port) \
            == (24, 4, 7, 2)

    def test_object_response_round_trip(self):
        _, ch = make_soa(4, kind="response")
        ch.push(MomsResponse(9, 48, b"\xff", port=1))
        ch.commit()
        token = ch.front()
        assert isinstance(token, MomsResponse)
        assert (token.req_id, token.addr, token.data, token.port) \
            == (9, 48, b"\xff", 1)
        assert len(ch.pop_many()) == 1

    def test_push_many_checks_capacity_once(self):
        _, ch = make_soa(2)
        with pytest.raises(OverflowError):
            ch.push_many([MomsRequest(0, 4), MomsRequest(4, 4),
                          MomsRequest(8, 4)])
        assert ch.pending == 0


class TestThrottleInteraction:
    def test_throttle_blocks_new_pushes_but_not_inflight_pops(self):
        _, ch = make_soa(4)
        ch.push_request(0, 4, "a", 0)
        ch.push_request(4, 4, "b", 1)
        ch.commit()
        ch.throttle(0)
        assert not ch.can_push()
        with pytest.raises(OverflowError):
            ch.push_request(8, 4, "c", 2)
        assert ch.pop_request()[2] == "a"
        assert ch.pop_request()[2] == "b"
        ch.restore()
        assert ch.capacity == 4
        ch.validate()

    def test_throttle_above_base_grows_columns_preserving_order(self):
        _, ch = make_soa(2)
        # Rotate the ring first so _head != 0 when the columns grow.
        ch.push_request(0, 4, "x", 0)
        ch.commit()
        assert ch.pop_request()[2] == "x"
        ch.commit()
        ch.push_request(10, 4, "a", 1)
        ch.push_request(20, 4, "b", 2)
        ch.commit()
        ch.throttle(6)  # larger than the base power-of-two ring
        for index in range(4):
            ch.push_request(30 + index, 4, ("new", index), 3)
        ch.commit()
        ids = [ch.pop_request()[2] for _ in range(6)]
        assert ids == ["a", "b", ("new", 0), ("new", 1),
                       ("new", 2), ("new", 3)]

    def test_wraparound_then_throttle_then_restore(self):
        _, ch = make_soa(2)
        for spin in range(3):  # wrap the 2-slot ring
            ch.push_request(spin, 4, spin, 0)
            ch.commit()
            assert ch.pop_request()[2] == spin
            ch.commit()
        ch.push_request(99, 4, "keep", 0)
        ch.commit()
        ch.throttle(0)
        assert not ch.can_push()
        assert ch.front_request()[2] == "keep"
        ch.restore()
        assert ch.can_push()
        assert ch.pop_request()[2] == "keep"
        ch.validate()


class TestSpaceWakeOneShots:
    def _engine_with(self, channel):
        engine = Engine()
        engine.add_channel(channel)
        waker = engine.add_component(Waker())
        return engine, waker

    def test_request_space_wake_fires_once_when_space_frees(self):
        ch = SoaChannel(1, name="soa")
        engine, waker = self._engine_with(ch)
        ch.push_request(0, 4, "a", 0)
        engine._step()  # commit: channel full, no space wake
        ch.request_space_wake(waker)
        engine._step()  # full channel committed nothing: no wake yet
        assert waker.ticked == 0
        ch.pop_request()
        engine._step()  # pop commits -> space -> one-shot fires
        engine._step()  # waker ticks
        assert waker.ticked == 1
        engine._step()
        engine._step()
        assert waker.ticked == 1  # one-shot: no re-fire
        assert ch._space_requests == []

    def test_data_subscription_wakes_on_visible_tokens(self):
        ch = SoaChannel(2, name="soa")
        engine, waker = self._engine_with(ch)
        ch.subscribe_data(waker)
        ch.push_request(0, 4, "a", 0)
        engine._step()  # commit makes the token visible, wakes
        engine._step()  # tick
        assert waker.ticked == 1

    def test_plain_channel_one_shot_matches_soa_behaviour(self):
        for channel in (Channel(1, name="obj"), SoaChannel(1, name="soa")):
            engine, waker = self._engine_with(channel)
            channel.push_request(0, 4, "a", 0)
            engine._step()
            channel.request_space_wake(waker)
            channel.pop_request()
            engine._step()
            engine._step()
            assert waker.ticked == 1, channel.name
