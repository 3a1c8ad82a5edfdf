"""Shared plumbing for the per-figure experiment modules.

Besides graph/budget helpers, this module hosts the **sweep runner**:
every figure is a list of independent (graph, algorithm, architecture)
points, so :func:`run_points` evaluates them either in-process or one
forked process per point, at most ``REPRO_JOBS`` at a time, preserving
the serial row order exactly -- each point simulates the same
deterministic system either way, so results are identical, only
wall-clock changes.  A point's settings, its snapshot path included,
travel as arguments; nothing here reads the environment except
:func:`default_jobs`.
"""

import base64
import hashlib
import json
import os
import pickle
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import DEFAULT_INTERVAL, Checkpointer, load_snapshot
from repro.core.stats import EngineActivity
from repro.graph.datasets import BENCHMARKS, load_benchmark
from repro.records import Record


QUICK_SHRINK = 6


def bench_graph(key, quick=True):
    """Benchmark graph at bench scale (quick) or full scaled size."""
    return load_benchmark(key, shrink=QUICK_SHRINK if quick else 1)


def quick_benchmarks(quick=True):
    """Default benchmark subset for quick sweeps."""
    if quick:
        return ("WT", "RV", "24")
    return ("WT", "DB", "UK", "IT", "SK", "MP", "RV", "FR", "WB",
            "24", "25", "26")


def quick_channels(quick=True):
    """Channel count for quick sweeps (full runs use all four)."""
    return 2 if quick else 4


def iteration_budget(algorithm, quick=True):
    """Iteration caps for throughput measurements.

    Throughput (GTEPS) stabilizes after a couple of sweeps, so quick
    mode truncates convergence runs; results record processed edges.
    """
    if algorithm == "pagerank":
        return 2 if quick else 10
    return 3 if quick else None


def cli_point(args, organization, **observers):
    """The 4x4, two-channel point the ``trace`` and ``profile`` commands
    run: ``args.graph``/``args.algorithm`` at bench scale unless
    ``args.full``.  Returns ``(graph, system, iteration budget)``."""
    quick = not args.full
    graph = bench_graph(args.graph, quick=quick)
    config = ArchitectureConfig(
        _design(4, 4, organization, args.algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(graph, args.algorithm, config, **observers)
    return graph, system, iteration_budget(args.algorithm, quick)


class PointCheckpoint(NamedTuple):
    """Snapshot settings the sweep runner hands one point's worker.

    The point snapshots itself to ``path`` every ``interval`` cycles.
    With ``resume`` (a retry attempt) it continues from the snapshot at
    ``path``, when there is one, instead of starting over.
    """

    path: str
    interval: int
    resume: bool = False


def run_point(graph, algorithm, config, quick=True, use_hashing=True,
              use_dbg=False, source=0, checkpoint=None):
    """One (graph, algorithm, architecture) measurement.

    ``checkpoint`` is a :class:`PointCheckpoint` or None.  When it asks
    to resume and its snapshot exists, the point continues from that
    snapshot -- the sweep runner keys the path by the point's
    fingerprint, so it can only ever hold this exact point's state, and
    the results are bit-identical either way.  Otherwise the point runs
    from the start, snapshotting to the checkpoint's path if it has one.
    """
    if (checkpoint is not None and checkpoint.resume
            and os.path.exists(checkpoint.path)):
        system, _header = load_snapshot(checkpoint.path)
        return system, system.resume_run()
    system = AcceleratorSystem(
        graph, algorithm, config, use_hashing=use_hashing, use_dbg=use_dbg,
        source=source,
        checkpoint=(None if checkpoint is None
                    else Checkpointer(checkpoint.path, checkpoint.interval)),
    )
    result = system.run(
        max_iterations=iteration_budget(algorithm, quick)
    )
    return system, result


# -- sweep runner ------------------------------------------------------------


def default_jobs():
    """Worker count for sweeps: ``REPRO_JOBS`` env, else the CPU count."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


@dataclass
class SweepPolicy:
    """Resilience policy for :func:`run_points`.

    The default policy is inert: a parallel sweep's forked runner then
    runs each point once, with no timeout, journal or snapshots.  Any of
    the knobs below makes the policy active, which sends even a serial
    sweep through the forked runner.  That runner gives each point its
    own process, so a crash or hang is isolated to that point and the
    rest of the sweep continues.

    * ``timeout`` -- wall-clock seconds per point attempt; an
      over-budget worker is terminated and the attempt counts as a
      failure.
    * ``retries`` -- extra attempts per point after the first failure,
      spaced by exponential backoff (``backoff * 2**(attempt-1)``
      seconds).
    * ``journal`` -- path of a JSON-lines results journal: every
      completed point is appended (fingerprint + pickled payload) as
      soon as it finishes, so a killed sweep loses at most the points
      that were in flight.
    * ``resume`` -- reuse journal entries whose fingerprint matches
      instead of re-running those points.
    * ``checkpoint_dir`` -- directory of per-point snapshots (keyed by
      point fingerprint); a timed-out or crashed point's retry resumes
      from its last snapshot instead of starting over.
    * ``checkpoint_interval`` -- snapshot cadence in cycles (default:
      :data:`repro.checkpoint.DEFAULT_INTERVAL`).
    """

    timeout: float = None
    retries: int = 0
    backoff: float = 1.0
    journal: str = None
    resume: bool = False
    checkpoint_dir: str = None
    checkpoint_interval: int = None

    @property
    def active(self):
        return (self.timeout is not None or self.retries > 0
                or self.journal is not None
                or self.checkpoint_dir is not None)


_POLICY = SweepPolicy()


def configure_sweep(timeout=None, retries=0, backoff=1.0, journal=None,
                    resume=False, checkpoint_dir=None,
                    checkpoint_interval=None):
    """Install the process-wide sweep policy (see :class:`SweepPolicy`)."""
    global _POLICY
    _POLICY = SweepPolicy(timeout=timeout, retries=retries, backoff=backoff,
                          journal=journal, resume=resume,
                          checkpoint_dir=checkpoint_dir,
                          checkpoint_interval=checkpoint_interval)
    return _POLICY


def sweep_policy():
    return _POLICY


class SweepFailure(RuntimeError):
    """One or more sweep points failed permanently.

    ``failures`` maps point index to the final error description;
    ``completed`` is how many points did finish (and, with a journal,
    were checkpointed for ``--resume``).
    """

    def __init__(self, message, failures, completed):
        super().__init__(message)
        self.failures = failures
        self.completed = completed


# Version of the journal record layout.  Written into every record;
# resume treats records with a *newer* major schema as unusable (the
# payload layout may have changed) but accepts older/missing versions
# -- payload decoding is guarded either way, so a stale or corrupt
# entry degrades to "re-run that point", never a crash.
JOURNAL_SCHEMA = 2
_JOURNAL_KEYS = ("schema", "index", "fingerprint", "point", "status",
                 "attempt")
JOURNAL_OK = Record("journal ok row", "schema", JOURNAL_SCHEMA,
                    _JOURNAL_KEYS + ("payload",), status="ok")
JOURNAL_FAIL = Record("journal fail row", "schema", JOURNAL_SCHEMA,
                      _JOURNAL_KEYS + ("error",), status="fail")


def _fingerprint(point):
    """Stable identity of a point across processes (journal key).

    ``repr`` of the (frozen-ish) dataclass covers every field that
    affects the simulation; dataclass reprs are deterministic.
    """
    return hashlib.sha256(repr(point).encode("utf-8")).hexdigest()[:24]


def _decode_payload(record):
    """Payload of a journal record, or None if it cannot be trusted.

    Journals survive code changes (that is their point), so the pickled
    payload may have been written by a different code version; any
    decode error -- truncated base64, missing classes, changed pickle
    layout, newer schema -- means the point is simply re-run.
    """
    if record.get("schema", 1) > JOURNAL_SCHEMA:
        return None
    try:
        return pickle.loads(base64.b64decode(record["payload"]))
    except Exception:
        return None


def _load_journal(path):
    """Completed entries from a journal, keyed by fingerprint.

    Tolerates a truncated final line (the signature of a sweep killed
    mid-write): unparseable lines are skipped, not fatal.
    """
    entries = {}
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return entries
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # The signature of a sweep killed mid-append.  The
                # record is unusable (its point re-runs), but resume
                # must say so rather than silently shrink the cache.
                warnings.warn(
                    f"{path}:{lineno}: skipping unparseable journal "
                    f"record (sweep killed mid-write?); the point will "
                    f"be re-run",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if record.get("status") == "ok" and "payload" in record:
                entries[record.get("fingerprint")] = record
    return entries


def _sweep_child(worker, point, conn, checkpoint=None):
    """Forked-process entry: run one point, ship the outcome back.

    ``checkpoint`` is the point's :class:`PointCheckpoint`, passed on as
    ``worker(point, checkpoint=...)``; without one the call is
    ``worker(point)``.
    """
    try:
        if checkpoint is None:
            result = worker(point)
        else:
            result = worker(point, checkpoint=checkpoint)
        conn.send(("ok", result))
    except BaseException as error:  # noqa: BLE001 - isolate everything
        import traceback
        try:
            conn.send(("error", f"{error!r}\n{traceback.format_exc()}"))
        except Exception:
            pass
    finally:
        conn.close()


def _run_forked(worker, points, jobs, policy):
    """Crash-isolated, journaled, retrying point runner.

    Each point runs in its own forked process; ``jobs`` bounds
    concurrency.  Hung points are terminated at the timeout, crashed
    or failed points retry with exponential backoff up to the retry
    budget, and every completion is appended to the journal before the
    next point is scheduled, so a killed sweep loses at most the
    in-flight points.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    n = len(points)
    results = [None] * n
    done = [False] * n
    failures = {}
    journal_handle = None
    if policy.journal:
        if policy.resume:
            cached = _load_journal(policy.journal)
            for index, point in enumerate(points):
                record = cached.get(_fingerprint(point))
                if record is None:
                    continue
                payload = _decode_payload(record)
                if payload is not None:
                    results[index] = payload
                    done[index] = True
        journal_handle = open(policy.journal, "a", encoding="utf-8")
    checkpoint_interval = policy.checkpoint_interval
    if policy.checkpoint_dir:
        os.makedirs(policy.checkpoint_dir, exist_ok=True)
        if checkpoint_interval is None:
            checkpoint_interval = DEFAULT_INTERVAL

    def point_checkpoint(index, attempt):
        if not policy.checkpoint_dir:
            return None
        snapshot_path = os.path.join(
            policy.checkpoint_dir, _fingerprint(points[index]) + ".snap"
        )
        return PointCheckpoint(snapshot_path, checkpoint_interval,
                               resume=attempt > 1)

    def journal_write(record):
        if journal_handle is not None:
            journal_handle.write(json.dumps(record) + "\n")
            journal_handle.flush()

    pending = deque(
        (index, 1) for index in range(n) if not done[index]
    )  # (point index, attempt number)
    backoff_queue = []  # (ready walltime, index, attempt)
    running = {}  # index -> (process, conn, deadline, attempt)
    max_attempts = 1 + max(0, policy.retries)

    def finish(index, attempt, status, payload):
        point = points[index]
        shared = {"index": index, "fingerprint": _fingerprint(point),
                  "point": repr(point), "attempt": attempt}
        if status == "ok":
            results[index] = payload
            done[index] = True
            journal_write(JOURNAL_OK.row(payload=base64.b64encode(
                pickle.dumps(payload)).decode("ascii"), **shared))
            return
        if attempt < max_attempts:
            delay = policy.backoff * 2 ** (attempt - 1)
            backoff_queue.append(
                (time.monotonic() + delay, index, attempt + 1)
            )
            return
        failures[index] = payload
        journal_write(JOURNAL_FAIL.row(error=str(payload), **shared))

    try:
        while pending or backoff_queue or running:
            now = time.monotonic()
            if backoff_queue:
                matured = [
                    entry for entry in backoff_queue if entry[0] <= now
                ]
                for entry in matured:
                    backoff_queue.remove(entry)
                    pending.append((entry[1], entry[2]))
            while pending and len(running) < jobs:
                index, attempt = pending.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_sweep_child,
                    args=(worker, points[index], child_conn,
                          point_checkpoint(index, attempt)),
                )
                process.start()
                child_conn.close()
                deadline = (None if policy.timeout is None
                            else time.monotonic() + policy.timeout)
                running[index] = (process, parent_conn, deadline, attempt)
            progressed = False
            for index in list(running):
                process, conn, deadline, attempt = running[index]
                if conn.poll(0):
                    try:
                        status, payload = conn.recv()
                        process.join()
                    except EOFError:
                        # Pipe closed with no message: the worker died
                        # before it could report (hard crash).
                        process.join()
                        status, payload = (
                            "error",
                            f"worker crashed (exit code {process.exitcode})",
                        )
                    conn.close()
                    del running[index]
                    finish(index, attempt, status, payload)
                    progressed = True
                elif not process.is_alive() and not conn.poll(0):
                    # Re-poll after the liveness check: a worker that
                    # reported and exited between the two is not a
                    # crash; the next pass reads its message.
                    exitcode = process.exitcode
                    conn.close()
                    del running[index]
                    finish(index, attempt, "error",
                           f"worker crashed (exit code {exitcode})")
                    progressed = True
                elif deadline is not None and time.monotonic() > deadline:
                    process.terminate()
                    process.join()
                    conn.close()
                    del running[index]
                    finish(index, attempt, "error",
                           f"timed out after {policy.timeout:g}s")
                    progressed = True
            if not progressed and (running or backoff_queue):
                time.sleep(0.02)
    finally:
        for process, conn, _deadline, _attempt in running.values():
            process.terminate()
            process.join()
            conn.close()
        if journal_handle is not None:
            journal_handle.close()

    if failures:
        summary = "; ".join(
            f"point {index} ({points[index]!r:.80}): {error}"
            for index, error in sorted(failures.items())
        )
        raise SweepFailure(
            f"{len(failures)} of {n} sweep points failed permanently "
            f"after {max_attempts} attempt(s) each: {summary}",
            failures=failures,
            completed=sum(done),
        )
    return results


def run_points(worker, points, jobs=None, policy=None):
    """Evaluate ``worker(point)`` for every point, preserving order.

    The points run in-process when the :class:`SweepPolicy` (``policy``
    argument, else the process-wide :func:`configure_sweep` policy) is
    inert and either ``jobs <= 1`` (default: :func:`default_jobs`) or
    there is only one point.  Otherwise each point runs in its own
    forked process, at most ``jobs`` at a time, under the policy's
    timeouts, retries, journal and snapshots; results must pickle, and
    a point that fails for good raises :class:`SweepFailure` once the
    others are done.  With a ``checkpoint_dir`` the worker is called as
    ``worker(point, checkpoint=PointCheckpoint(...))``.  The returned
    list is always in input order, so sweep rows come out identical to
    the serial path.
    """
    points = list(points)
    if policy is None:
        policy = _POLICY
    if jobs is None:
        jobs = default_jobs()
    if not policy.active and (jobs <= 1 or len(points) <= 1):
        return [worker(point) for point in points]
    return _run_forked(worker, points, max(1, jobs), policy)


@dataclass
class SweepPoint:
    """One picklable simulation point of a figure sweep.

    The graph is reloaded by key inside the worker process (benchmark
    graphs are generated deterministically, so this is cheap and avoids
    shipping edge arrays through pickles).  ``budget_quick`` overrides
    the iteration-budget switch independently of the graph scale (only
    Fig. 1 uses that).
    """

    graph_key: str
    algorithm: str
    config: object
    quick: bool = True
    budget_quick: bool = None
    use_hashing: bool = True
    use_dbg: bool = False
    source: int = 0

    KNOWN_ALGORITHMS = ("pagerank", "scc", "sssp", "bfs")

    def __post_init__(self):
        # Eager validation: a bad key must fail here, at sweep build
        # time, with a clear message -- not minutes later inside a
        # worker process as an opaque crash.
        if self.graph_key not in BENCHMARKS:
            known = ", ".join(sorted(BENCHMARKS))
            raise ValueError(
                f"unknown benchmark graph key {self.graph_key!r}; "
                f"known keys: {known}"
            )
        if self.algorithm not in self.KNOWN_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: "
                f"{', '.join(self.KNOWN_ALGORITHMS)}"
            )

    def load_graph(self):
        return bench_graph(self.graph_key, self.quick)


def simulate_point(point, checkpoint=None):
    """Module-level sweep worker: returns (RunResult, activity dict)."""
    budget_quick = point.budget_quick
    if budget_quick is None:
        budget_quick = point.quick
    system, result = run_point(
        point.load_graph(), point.algorithm, point.config,
        quick=budget_quick, use_hashing=point.use_hashing,
        use_dbg=point.use_dbg, source=point.source, checkpoint=checkpoint,
    )
    return result, EngineActivity.from_engine(system.engine).as_dict()


# Engine-activity tally across every sweep run in this process; the
# CLI and the benchmark harness print its summary line after each
# experiment (see repro.report.engine_summary_line).
_SWEEP_ACTIVITY = EngineActivity()


def sweep_activity():
    return _SWEEP_ACTIVITY


def reset_sweep_activity():
    global _SWEEP_ACTIVITY
    _SWEEP_ACTIVITY = EngineActivity()
    return _SWEEP_ACTIVITY


def run_sweep(points, jobs=None):
    """Run a figure's points (see :func:`run_points`); list of RunResults.

    Engine-activity counters from every point -- local or from worker
    processes -- are merged into the process-wide tally.
    """
    results = []
    for result, activity in run_points(simulate_point, points, jobs):
        _SWEEP_ACTIVITY.merge(activity)
        results.append(result)
    return results
