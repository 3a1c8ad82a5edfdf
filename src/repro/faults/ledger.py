"""Request-conservation ledger and structural drain checks.

A *token* is one unit of outstanding work with a lifecycle: a PE's
in-flight MOMS read (keyed by request ID), a bank's in-flight DRAM
line (keyed by line address), a DRAM channel's scheduled response beat.
The ledger counts every token at issue and retire time and keeps the
in-flight multiset per scope, so

* conservation (``issued == in_flight + retired``) is checkable at any
  cycle,
* retiring a token that was never issued -- the signature of a
  corrupted ID or a misrouted response -- raises immediately, before
  the corruption propagates into architectural state, and
* at drain time (end of an iteration) every scope must be empty, which
  catches leaked MSHRs, lost subentries, and stuck channel tokens.

Scopes are small hashable labels such as ``("pe", 3)`` or
``("bank", "shared0")``.  The ledger observes the simulation core
through the component probe (:mod:`repro.sim.probe`): the ``pe_*``,
``bank_*`` and ``dram_*`` event methods below map each event onto its
scope, so the disabled path costs the probe's single attribute test.
"""

from collections import Counter

_BEAT_BYTES = 64  # one DRAM response beat (repro.mem.dram.LINE_BYTES)


class InvariantViolation(AssertionError):
    """A conservation or drain invariant failed.

    ``details`` carries the structured evidence (scope, token, counts)
    so harnesses can log it alongside a stall report.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class _Scope:
    __slots__ = ("issued", "retired", "in_flight")

    def __init__(self):
        self.issued = 0
        self.retired = 0
        self.in_flight = Counter()

    def live(self):
        return self.issued - self.retired


class TokenLedger:
    """Tracks token lifecycles per scope; see the module docstring."""

    def __init__(self):
        self._scopes = {}
        self.violations = 0

    # -- lifecycle hooks ----------------------------------------------------

    def _scope(self, scope):
        entry = self._scopes.get(scope)
        if entry is None:
            entry = self._scopes[scope] = _Scope()
        return entry

    def issue(self, scope, token):
        entry = self._scope(scope)
        entry.issued += 1
        entry.in_flight[token] += 1

    def verify(self, scope, token):
        """Assert *token* is in flight in *scope* (peek-time check).

        Called before a response's ID is used to index architectural
        state, so a corrupted token is flagged here instead of turning
        into a wrong BRAM write or a KeyError deep in the datapath.
        """
        entry = self._scopes.get(scope)
        if entry is None or entry.in_flight.get(token, 0) <= 0:
            self.violations += 1
            raise InvariantViolation(
                f"scope {scope!r}: token {token!r} retired/observed but "
                f"never issued (corrupted ID or misrouted response)",
                details={
                    "scope": scope,
                    "token": token,
                    "in_flight": entry.live() if entry else 0,
                },
            )

    def retire(self, scope, token):
        self.verify(scope, token)
        entry = self._scopes[scope]
        entry.retired += 1
        count = entry.in_flight[token] - 1
        if count:
            entry.in_flight[token] = count
        else:
            del entry.in_flight[token]

    # -- probe events (repro.sim.probe.EVENTS) ------------------------------

    def pe_verify(self, pe, req_id):
        self.verify(("pe", pe.pe_index), req_id)

    def pe_issue(self, pe, req_id, addr, now):
        self.issue(("pe", pe.pe_index), req_id)

    def pe_retire(self, pe, req_id, addr, now):
        self.retire(("pe", pe.pe_index), req_id)

    def bank_alloc(self, bank, req_id, port, line_addr, now):
        self.issue(("bank", bank.name), line_addr)

    def bank_drain(self, bank, line_addr, now):
        self.retire(("bank", bank.name), line_addr)

    def dram_schedule(self, channel, addr, beats):
        scope = ("dram", channel.name)
        for beat in range(beats):
            self.issue(scope, addr + beat * _BEAT_BYTES)

    def dram_deliver(self, channel, respond_to, addr, issued_at, now):
        self.retire(("dram", channel.name), addr)

    def dram_evaporate(self, channel, addr):
        self.retire(("dram", channel.name), addr)

    # -- invariants ---------------------------------------------------------

    def in_flight(self, scope=None):
        if scope is not None:
            entry = self._scopes.get(scope)
            return entry.live() if entry else 0
        return sum(entry.live() for entry in self._scopes.values())

    def assert_conserved(self):
        """``issued == in_flight + retired`` for every scope."""
        for scope, entry in self._scopes.items():
            live = sum(entry.in_flight.values())
            if entry.issued != entry.retired + live:
                self.violations += 1
                raise InvariantViolation(
                    f"scope {scope!r}: issued {entry.issued} != retired "
                    f"{entry.retired} + in-flight {live}",
                    details={"scope": scope, "issued": entry.issued,
                             "retired": entry.retired, "in_flight": live},
                )

    def assert_drained(self, context=""):
        """No scope may hold in-flight tokens (drain-time leak check)."""
        self.assert_conserved()
        leaks = {
            scope: dict(list(entry.in_flight.items())[:8])
            for scope, entry in self._scopes.items()
            if entry.in_flight
        }
        if leaks:
            self.violations += 1
            where = f" at {context}" if context else ""
            raise InvariantViolation(
                f"token leak{where}: {len(leaks)} scope(s) still hold "
                f"in-flight tokens: {leaks}",
                details={"leaks": leaks, "context": context},
            )

    def snapshot(self):
        """Per-scope counters as a plain dict (for reports)."""
        return {
            repr(scope): {
                "issued": entry.issued,
                "retired": entry.retired,
                "in_flight": sum(entry.in_flight.values()),
            }
            for scope, entry in self._scopes.items()
        }


def check_drained(system, context=""):
    """Structural drain check over an :class:`AcceleratorSystem`.

    Complements the ledger with direct structure inspection: leaked
    MSHR entries, live subentries, half-finished drains, scheduled DRAM
    responses, and channel tokens all indicate lost or stuck work when
    the system claims an iteration is complete.
    """
    problems = []
    for bank in system.hierarchy.banks:
        if bank.mshrs.occupancy:
            lines = [f"{e.line_addr:#x}" for e in bank.mshrs.entries()][:8]
            problems.append(
                f"bank {bank.name}: {bank.mshrs.occupancy} leaked MSHR "
                f"entries (lines {', '.join(lines)})"
            )
        if bank.subentries.entries_live:
            problems.append(
                f"bank {bank.name}: {bank.subentries.entries_live} live "
                f"subentries after drain"
            )
        if bank._drain_chain is not None:
            problems.append(f"bank {bank.name}: drain still in progress")
    for channel in system.mem.channels:
        if channel.pending:
            problems.append(
                f"dram {channel.name}: {channel.pending} scheduled "
                f"responses undelivered"
            )
        if channel.req.pending:
            problems.append(
                f"dram {channel.name}: {channel.req.pending} requests "
                f"still queued"
            )
    for channel in system.engine._channels:
        if channel.pending:
            problems.append(
                f"channel {channel.name!r}: {channel.pending} tokens "
                f"stuck (visible {len(channel)})"
            )
    if problems:
        where = f" at {context}" if context else ""
        raise InvariantViolation(
            "drain check failed%s:\n  %s" % (where, "\n  ".join(problems)),
            details={"problems": problems, "context": context},
        )
