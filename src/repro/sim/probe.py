"""One observer slot per component: the probe fan-out.

Every component that reports events carries a single ``_probe`` slot
(``Component._probe = None``).  Each semantic event is one gated call,
``if probe is not None: probe.bank_alloc(bank, req_id, port, line, now)``,
so an unobserved run pays exactly one ``is None`` test per event.  A
:class:`Probe` feeds that call to every attached observer (the
invariant ledger, then the telemetry collector) in attach order.

Observers define only the events they use, as methods named after
:data:`EVENTS`.  The probe binds each event once, at construction:
to a no-op when no observer defines it, to the observer's own bound
method when exactly one does (so one observer costs a direct call),
and to a closure calling each definer in turn otherwise.  Probes only
observe; state-mutating fault injection keeps its own ``_fault`` slot.
"""

#: Every event a component reports, with its positional arguments.
#: ``now`` is the current cycle; the first argument is the reporting
#: component itself.
EVENTS = (
    # processing element
    "pe_tick",         # (pe, now) -- tick start
    "pe_phase",        # (pe, phase, now) -- phase transition
    "pe_verify",       # (pe, req_id) -- response peeked, before use
    "pe_issue",        # (pe, req_id, addr, now) -- MOMS read issued
    "pe_retire",       # (pe, req_id, addr, now) -- MOMS read served
    # MOMS bank
    "bank_tick",       # (bank, now) -- tick start
    "bank_hit",        # (bank, req_id, port, line_addr, now)
    "bank_merge",      # (bank, req_id, port, line_addr, now) -- secondary
    "bank_alloc",      # (bank, req_id, port, line_addr, now) -- primary
    "bank_drain",      # (bank, line_addr, now) -- line back, MSHR still held
    "bank_replay",     # (bank, req_id, port, line_addr, now) -- subentry
    # crossbar and DRAM
    "xbar_hop",        # (xbar, token, now)
    "dram_accept",     # (channel, request, now) -- request popped
    "dram_schedule",   # (channel, addr, beats) -- response beats announced
    "dram_deliver",    # (channel, respond_to, addr, issued_at, now)
    "dram_evaporate",  # (channel, addr) -- fire-and-forget beat dropped
)


def _ignore(*_args):
    """The binding of an event no observer defines."""


def _fan_out(handlers):
    def call(*args):
        for handler in handlers:
            handler(*args)
    return call


class Probe:
    """Fan-out of component events to *observers*, in their order."""

    def __init__(self, observers):
        self.observers = tuple(observers)
        for event in EVENTS:
            handlers = [getattr(observer, event)
                        for observer in self.observers
                        if hasattr(observer, event)]
            if not handlers:
                bound = _ignore
            elif len(handlers) == 1:
                bound = handlers[0]
            else:
                bound = _fan_out(tuple(handlers))
            setattr(self, event, bound)

    def __reduce__(self):
        # The bindings hold closures; a snapshot carries the observers
        # and rebinds on restore.
        return (Probe, (self.observers,))


class EventCounter:
    """Counts every event; installed alone, how often each gate passed."""

    def __init__(self):
        self.counts = dict.fromkeys(EVENTS, 0)


def _counter(event):
    def count(self, *_args):
        self.counts[event] += 1
    return count


for _event in EVENTS:
    setattr(EventCounter, _event, _counter(_event))
