"""Checkpoint/restore, deterministic replay, and chaos tooling.

Public surface:

* :func:`save_snapshot` / :func:`load_snapshot` / :func:`read_header`
  -- the versioned, checksummed snapshot container.
* :class:`Checkpointer` -- engine hook writing periodic snapshots
  (``REPRO_CHECKPOINT="path[:interval]"``).
* :func:`restore_system` / :func:`replay_snapshot` -- bring a snapshot
  back mid-iteration and run it to completion.
* :func:`run_chaos` -- the SIGKILL/resume harness
  (``python -m repro chaos``).

A snapshot is the pickled system, so the one rule a stateful class
obeys is that its instance state pickles; :func:`save_snapshot` raises
:class:`SnapshotError` when it does not.  Completeness is checked by
running: replaying a mid-run snapshot must reproduce the uninterrupted
run bit for bit (DESIGN.md Section 6.7).
"""

from repro.checkpoint.runner import (
    DEFAULT_INTERVAL,
    Checkpointer,
    replay_snapshot,
    restore_system,
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
    "restore_system",
    "save_snapshot",
]
