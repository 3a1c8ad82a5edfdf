"""Inter-die crossing logic (paper Fig. 5).

Signals crossing SLR boundaries are registered on both ends with no
combinational logic in between; a handshake crossing therefore adds two
cycles of latency in each direction, and because the ready signal takes
two cycles to propagate back, the receiving queue needs at least four
slots to absorb the tokens already in the crossing registers.
"""

from repro.sim import Channel, Component, DelayLine

CROSSING_LATENCY = 2
MIN_CROSSING_QUEUE = 4


class DieCrossing(Component):
    """A one-directional registered crossing between two dies.

    Tokens are popped from ``inp``, spend ``CROSSING_LATENCY * hops``
    cycles in register stages, and are delivered into ``out``.  Credit
    accounting guarantees the in-flight tokens always fit in ``out``,
    mirroring the 4-slot skid buffer of Fig. 5 -- the crossing never
    drops or stalls mid-flight.
    """

    def __init__(self, engine, inp, out, hops=1, name="crossing"):
        if hops < 1:
            raise ValueError("a die crossing spans at least one boundary")
        if out.capacity < MIN_CROSSING_QUEUE:
            raise ValueError(
                "receiving queue needs >= 4 slots to absorb in-flight tokens"
            )
        self.inp = inp
        self.out = out
        self.hops = hops
        self.name = name
        self._line = engine.add_delay_line(
            DelayLine(CROSSING_LATENCY * hops, name=f"{name}.regs")
        )
        self.total_crossed = 0
        engine.add_component(self)
        # Wake on new tokens to cross and on register stages maturing.
        # A full receive queue (which also exhausts credits) arms a
        # one-shot space wake only when this crossing actually blocked
        # on it, so draining queues stop waking idle crossings.
        inp.subscribe_data(self)
        self._line.subscribe_data(self)

    def tick(self, engine):
        # Hot path: runs every cycle for every crossing; reach into the
        # primitives directly to avoid method-call overhead.
        line = self._line
        flight = line._in_flight
        out = self.out
        if flight and flight[0][0] <= engine.now:
            if out._occ + out._staged_n < out.capacity:
                out.push(flight.popleft()[1])
                self.total_crossed += 1
                if flight and flight[0][0] <= engine.now:
                    # The next register token already matured (its wake
                    # timer fired while the queue was full); deliver it
                    # next cycle instead of waiting for new traffic.
                    engine.wake(self)
            else:
                out.request_space_wake(self)
        if self.inp._visible:
            # Credits count the receive queue's registered occupancy,
            # which a same-cycle pop by its consumer does not lower, so
            # admission does not depend on registration order.
            if len(flight) + out._occ + out._staged_n < out.capacity:
                line.push(self.inp.pop())
            else:
                # Credits exhausted: they free when the receive queue
                # drains (space commit) or when a register delivers
                # (this component's own maturity timer, already set).
                out.request_space_wake(self)

    def is_idle(self):
        return len(self._line) == 0


def cross_link(engine, capacity, hops, name="link"):
    """Build (input_channel, output_channel) joined by a die crossing.

    When ``hops`` is zero the two names refer to one plain channel
    (same-die connection, no extra latency).
    """
    if hops == 0:
        channel = engine.add_channel(Channel(max(capacity, 1), name=name))
        return channel, channel
    inp = engine.add_channel(Channel(max(capacity, 1), name=f"{name}.in"))
    out = engine.add_channel(
        Channel(max(capacity, MIN_CROSSING_QUEUE), name=f"{name}.out")
    )
    DieCrossing(engine, inp, out, hops=hops, name=name)
    return inp, out
