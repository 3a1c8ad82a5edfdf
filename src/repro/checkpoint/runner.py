"""Periodic checkpointing, restore, and deterministic replay.

The :class:`Checkpointer` is the engine's third optional hook (after
the watchdog and the telemetry sampler, and polled *after* both, so a
snapshot captures whatever those hooks did this step and a resumed run
re-enters the step loop exactly where the original left it).  When
disabled it costs the engine one ``is None`` test per step -- one of
the three per-step engine-poll gates that the disabled-gate census in
``benchmarks/test_probe_gates.py`` counts and holds under 3%.

The checkpointer itself travels inside the snapshot: restoring brings
back its schedule, its path, and its write counters, so a resumed run
keeps checkpointing to the same file on the same cadence with no
re-configuration.
"""

import os

from repro.checkpoint.snapshot import load_snapshot, save_snapshot

DEFAULT_INTERVAL = 100_000

_NEVER = float("inf")


class Checkpointer:
    """Writes a snapshot of the attached system every *interval* cycles.

    The engine polls :meth:`poll` whenever ``now >= next_checkpoint``,
    so its per-step cost stays a single comparison.
    """

    def __init__(self, path, interval=DEFAULT_INTERVAL):
        if interval <= 0:
            raise ValueError(f"checkpoint interval must be positive: {interval}")
        self.path = os.fspath(path)
        self.interval = int(interval)
        self.system = None
        self.last_path = None
        self.last_cycle = None
        self.writes = 0
        self.next_checkpoint = _NEVER

    @classmethod
    def from_spec(cls, spec):
        """Build from a ``path`` or ``path:interval`` string.

        This is the ``REPRO_CHECKPOINT`` environment syntax; a trailing
        ``:<digits>`` is the interval, anything else is part of the
        path.
        """
        path, _, tail = str(spec).rpartition(":")
        if path and tail.isdigit():
            return cls(path, interval=int(tail))
        return cls(str(spec))

    def attach(self, system):
        self.system = system
        system.engine.checkpointer = self
        self.next_checkpoint = system.engine.now + self.interval

    def poll(self, engine):
        """Write the due snapshot; called by the engine only when
        ``now >= next_checkpoint``."""
        self.write()

    def write(self):
        """Write a snapshot now; returns its header.

        Counters and the schedule are advanced *before* pickling so the
        state inside the snapshot is the post-checkpoint state: a
        restored run resumes with this write already on the books and
        the next one due a full interval later.
        """
        now = self.system.engine.now
        self.writes += 1
        self.last_cycle = now
        self.last_path = self.path
        self.next_checkpoint = now + self.interval
        return save_snapshot(
            self.system, self.path,
            meta={"interval": self.interval, "ordinal": self.writes},
        )

    def replay_command(self):
        """The ready-to-run CLI command replaying the last snapshot."""
        if self.last_path is None:
            return None
        return f"python -m repro replay {self.last_path}"


def replay_snapshot(path):
    """Resume the snapshot at *path* to completion.

    Returns ``(result, header)`` where ``result`` is the same
    :class:`~repro.accel.system.RunResult` the uninterrupted run would
    have produced -- bit-identical cycle counts, stats, and values;
    that contract is enforced by ``tests/checkpoint/``.
    """
    system, header = load_snapshot(path)
    return system.resume_run(), header
