"""Fault injection and invariant checking for the simulation core.

The paper's memory system only works because thousands of in-flight
misses are conserved exactly: every MSHR allocation, subentry append,
and DRAM response must drain without loss or deadlock.  This package
makes that conservation *checkable* and *attackable*:

* :mod:`repro.faults.ledger` -- a :class:`TokenLedger` that follows
  every request from PE issue to response delivery and proves
  ``issued == in_flight + retired`` per component, plus structural
  drain checks (MSHR/subentry leaks, stuck channel tokens).
* :mod:`repro.faults.plan` -- seeded, deterministic
  :class:`FaultPlan`\\ s that perturb DRAM timing (latency spikes,
  bounded response reorder, blackouts), channel capacity (backpressure
  bursts), and MSHR allocation (forced-full windows), so tests can
  prove the system degrades gracefully -- it stalls, it never corrupts.
* :mod:`repro.faults.watchdog` -- a no-progress watchdog for
  ``Engine.run`` that raises a structured stall report (who is waiting
  on which channel or timer) instead of hanging.

The test suite holds the package to both promises: every named plan
must engage and leave BFS and SCC values bit-identical to the no-fault
run (``tests/faults/test_fault_plans.py``), and a mutation plan that
corrupts one response ID must be caught by the ledger
(``tests/faults/test_ledger.py``).

Everything here is strictly opt-in: with no plan installed and checks
disabled, the hooks in the simulation core reduce to ``is None`` tests
on class-level attributes (see DESIGN.md Section 6.2).
"""

from repro.faults.ledger import InvariantViolation, TokenLedger, check_drained
from repro.faults.plan import FaultPlan, Window, install_faults
from repro.faults.report import build_stall_report, format_stall_report
from repro.faults.watchdog import Watchdog, WatchdogError

__all__ = [
    "FaultPlan",
    "InvariantViolation",
    "TokenLedger",
    "Watchdog",
    "WatchdogError",
    "Window",
    "build_stall_report",
    "check_drained",
    "format_stall_report",
    "install_faults",
]
