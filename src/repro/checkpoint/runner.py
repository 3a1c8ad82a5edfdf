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

Chaos hook: when ``REPRO_CHAOS_KILL_AT="<cycle>:<marker_path>"`` is
set, the checkpointer delivers a *real* ``SIGKILL`` to its own process
at the first poll at or after ``<cycle>`` -- uncatchable, exactly like
an OOM kill or a preempted batch job.  The marker file makes the kill
one-shot: it is created immediately before the signal, so the resumed
process (which sees the marker) disarms instead of dying again.
"""

import os
import signal

from repro.checkpoint.snapshot import load_snapshot, save_snapshot

DEFAULT_INTERVAL = 100_000

_NEVER = float("inf")


class Checkpointer:
    """Writes a snapshot of the attached system every *interval* cycles.

    The engine polls :meth:`poll` whenever ``now >= next_checkpoint``;
    :meth:`_rearm` keeps ``next_checkpoint`` at the earliest pending
    event (next write, or the chaos kill cycle) so the engine's
    per-step cost stays a single comparison.
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
        self._write_due = _NEVER
        self.next_checkpoint = _NEVER
        self._kill_at = None
        self._kill_marker = None
        kill_spec = os.environ.get("REPRO_CHAOS_KILL_AT", "").strip()
        if kill_spec:
            cycle, _, marker = kill_spec.partition(":")
            if not marker:
                raise ValueError(
                    f"REPRO_CHAOS_KILL_AT must be '<cycle>:<marker_path>', "
                    f"got {kill_spec!r}"
                )
            self._kill_at = int(cycle)
            self._kill_marker = marker

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
        self._write_due = system.engine.now + self.interval
        self._rearm()

    def _rearm(self):
        due = self._write_due
        if self._kill_at is not None and self._kill_at < due:
            due = self._kill_at
        self.next_checkpoint = due

    def poll(self, engine):
        """Fire whatever is due at ``engine.now``; called by the engine
        only when ``now >= next_checkpoint``."""
        now = engine.now
        if self._kill_at is not None and now >= self._kill_at:
            self._maybe_kill()
        if now >= self._write_due:
            self.write()
        self._rearm()

    def _maybe_kill(self):
        if os.path.exists(self._kill_marker):
            # The marker is written immediately before the SIGKILL, so
            # its presence means this process is the post-kill resume:
            # disarm instead of dying in a loop.
            self._kill_at = None
            return
        with open(self._kill_marker, "w", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {self.system.engine.now}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

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
        self._write_due = now + self.interval
        self._rearm()
        return save_snapshot(
            self.system, self.path,
            meta={"interval": self.interval, "ordinal": self.writes},
        )

    def replay_command(self):
        """The ready-to-run CLI command replaying the last snapshot."""
        if self.last_path is None:
            return None
        return f"python -m repro replay {self.last_path}"


def restore_system(path):
    """Load the snapshot at *path*; returns ``(system, header)``.

    The system comes back mid-iteration with its engine, channels,
    in-flight tokens, hooks, and checkpointer exactly as pickled; call
    ``system.resume_run()`` to continue it to completion.
    """
    return load_snapshot(path)


def replay_snapshot(path):
    """Resume the snapshot at *path* to completion.

    Returns ``(result, header)`` where ``result`` is the same
    :class:`~repro.accel.system.RunResult` the uninterrupted run would
    have produced -- bit-identical cycle counts, stats, and values;
    that contract is enforced by ``tests/checkpoint/``.
    """
    system, header = load_snapshot(path)
    return system.resume_run(), header
