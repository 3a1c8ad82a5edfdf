"""Dynamic job scheduler (paper Fig. 6 and Section IV-E).

One job per destination interval; PEs pull the next job whenever they
go idle, through a single-slot job channel (one grant per cycle, like
the paper's arbiter).  Dynamic pulling is what lets the paper skip
hash-based relabeling: with jobs 1-2 orders of magnitude more numerous
than PEs, work balances itself as long as no job exceeds M / N_PE
edges.

The scheduler also owns the iteration bookkeeping of Template 1:
per-source-interval active flags, completion collection with updated
flags, and convergence detection.
"""

from dataclasses import dataclass

import numpy as np

from repro.sim import Component


@dataclass(slots=True)
class Job:
    """One destination interval's worth of work."""

    d: int
    iteration: int


class Scheduler(Component):
    """Issues jobs to PEs and collects their completions."""

    def __init__(self, job_channel, done_channel, partitioning):
        self.job_channel = job_channel
        self.done_channel = done_channel
        self.part = partitioning
        # Wake on PE completions; a full job slot arms a one-shot space
        # wake at the stall site, and while jobs are queued and the
        # slot is free, tick() re-arms itself below.
        done_channel.subscribe_data(self)
        self._pending = []
        self._outstanding = 0
        self.iteration = 0
        self.active_srcs = np.ones(partitioning.q_src, dtype=bool)
        self._next_active = np.zeros(partitioning.q_src, dtype=bool)
        self.any_update = False
        self.jobs_issued = 0
        self.jobs_completed = 0

    def start_iteration(self, always_active):
        """Queue the jobs of one iteration given current active sources.

        Returns the number of jobs queued (0 means converged).
        """
        self.iteration += 1
        self._next_active[:] = False
        self.any_update = False
        sizes = self.part.shard_sizes()  # (q_src, q_dst)
        if always_active:
            self.active_srcs[:] = True
        active_rows = sizes[self.active_srcs]
        live = (
            active_rows.sum(axis=0) > 0
            if len(active_rows)
            else np.zeros(self.part.q_dst, dtype=bool)
        )
        self._pending = [
            Job(d=int(d), iteration=self.iteration)
            for d in np.nonzero(live)[0]
        ]
        self._issued_this_iteration = len(self._pending)
        if self._pending:
            self.request_wake()
        return len(self._pending)

    def tick(self, engine):
        pending = self._pending
        if pending:
            job_channel = self.job_channel
            if job_channel._occ + job_channel._staged_n < job_channel.capacity:
                job_channel.push(pending.pop(0))
                self._outstanding += 1
                self.jobs_issued += 1
                if pending:
                    engine.wake(self)
            else:
                job_channel.request_space_wake(self)
        completions = self.done_channel.pop_all()
        if completions:
            self._outstanding -= len(completions)
            self.jobs_completed += len(completions)
            for d, updated in completions:
                if updated:
                    self.any_update = True
                    lo, hi = self.part.dst_interval_bounds(d)
                    first = lo // self.part.n_src
                    last = (hi - 1) // self.part.n_src
                    self._next_active[first:last + 1] = True

    def iteration_done(self):
        return not self._pending and self._outstanding == 0 \
            and not self.job_channel.pending

    def finish_iteration(self):
        """Commit the next-iteration active flags; True if work remains."""
        self.active_srcs, self._next_active = (
            self._next_active, self.active_srcs
        )
        return self.any_update

    def is_idle(self):
        return self.iteration_done()
