"""Checkpoint/restore and deterministic replay.

Public surface:

* :func:`save_snapshot` / :func:`load_snapshot` / :func:`read_header`
  -- the versioned, checksummed snapshot container.
* :class:`Checkpointer` -- engine hook writing periodic snapshots
  (``AcceleratorSystem(..., checkpoint="path[:interval]")``).
* :func:`replay_snapshot` -- bring a snapshot back mid-iteration and
  run it to completion (``python -m repro replay <snapshot>``).

A snapshot is the pickled system, so the one rule a stateful class
obeys is that its instance state pickles; :func:`save_snapshot` raises
:class:`SnapshotError` when it does not.  Completeness is checked by
running: replaying a mid-run snapshot must reproduce the uninterrupted
run bit for bit (DESIGN.md Section 6.7), also after the writing
process was SIGKILLed (``tests/experiments/test_sweep_hardening.py``).
"""

from repro.checkpoint.runner import (
    DEFAULT_INTERVAL,
    Checkpointer,
    replay_snapshot,
)
from repro.checkpoint.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
    SnapshotError,
    load_snapshot,
    read_header,
    save_snapshot,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_MAGIC",
    "SnapshotError",
    "Checkpointer",
    "DEFAULT_INTERVAL",
    "load_snapshot",
    "read_header",
    "replay_snapshot",
    "save_snapshot",
]
