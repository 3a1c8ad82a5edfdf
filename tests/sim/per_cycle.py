"""The per-cycle reference for the MOMS bank's hopeless-retry sleep.

A bank whose cuckoo MSHR insert fails hopelessly sleeps until a line
returns and settles the retries it slept through on its next tick
(DESIGN 6.1).  Inside :func:`retry_every_cycle` every bank instead
re-arms itself each cycle, as it does for any other failing insert,
and so ticks every retry one by one.  The two must agree on
everything except the scheduler's own counters.
"""

import contextlib

from repro.core import bank as bank_module
from repro.core.bank import MomsBank


@contextlib.contextmanager
def retry_every_cycle():
    """Banks ticked inside this block never sleep in a retry spin."""
    handle = MomsBank._handle_request

    def per_cycle(bank):
        outcome = handle(bank)
        if outcome is bank_module._SPIN:
            return bank_module._RETRY
        return outcome

    MomsBank._handle_request = per_cycle
    try:
        yield
    finally:
        MomsBank._handle_request = handle
