"""Round-robin arbitration of several token streams onto one."""

from repro.sim import Component


class RoundRobinArbiter(Component):
    """Merges N input channels into one output, one token per cycle.

    The grant pointer advances past the last winner, so persistent
    traffic on one input cannot starve the others -- matching the
    fair arbiters used throughout the paper's interconnect (Fig. 7).
    """

    def __init__(self, inputs, output, name="arbiter"):
        if not inputs:
            raise ValueError("arbiter needs at least one input")
        self.inputs = list(inputs)
        self.output = output
        self.name = name
        self._next = 0
        self.grants = [0] * len(self.inputs)
        # Wake on new input tokens.  Output space is handled by a
        # one-shot wake armed only when a grant actually blocked on a
        # full output, so commits of a draining output stop waking an
        # arbiter with nothing to send.
        for channel in self.inputs:
            channel.subscribe_data(self)

    def tick(self, engine):
        # Hot path: direct occupancy-int checks and inline capacity
        # arithmetic avoid per-input method calls.
        inputs = self.inputs
        output = self.output
        n = len(inputs)
        index = self._next
        for _ in range(n):
            if index >= n:
                index -= n
            channel = inputs[index]
            if channel._visible:
                if output._occ + output._staged_n >= output.capacity:
                    output.request_space_wake(self)
                    return
                output.push(channel.pop())
                self.grants[index] += 1
                index += 1
                self._next = index if index < n else 0
                # The popped input re-arms itself through its commit
                # only while it still holds tokens; other inputs were
                # not touched this cycle and commit nothing, so their
                # waiting tokens need an explicit next-cycle wake.
                for channel in inputs:
                    if channel._visible:
                        engine.wake(self)
                        return
                return
            index += 1
