"""The Snapshot protocol: which classes may appear in a snapshot.

Snapshots serialize the whole system object graph with pickle, which
preserves shared references and object identity (channels are wired
into many components; the fault hooks compare requesters with ``is``).
The *protocol* every stateful component implements is therefore:

1. **Pickle cleanly.**  Instance state is plain data -- ints, lists,
   deques, dicts, numpy arrays, other registered components.  Stored
   callables are module functions or bound methods (both pickle by
   name); lambdas and closures are banned from instance state.  The
   one closure-carrying class, :class:`~repro.accel.template.
   AlgorithmSpec`, pickles via a rebuild recipe instead.
2. **Be registered here.**  :data:`SNAPSHOT_REGISTRY` is the explicit
   inventory of snapshot-carried classes; :func:`audit_system` walks a
   real pickle of a built system and fails on any ``repro.*`` class
   that is not in the inventory.  Adding a stateful component without
   deciding its snapshot story breaks the audit test, loudly.

Deliberately *not* part of a snapshot (and why it is sound):

* **Probe bindings** (:class:`~repro.sim.probe.Probe`) -- per-event
  closures over the observers; the probe pickles as its observer
  tuple and rebinds on restore.
"""

import io
import pickle

SNAPSHOT_REGISTRY = {}


def register(cls, note=""):
    """Declare *cls* snapshot-carried (see the module docstring)."""
    SNAPSHOT_REGISTRY[cls] = note or cls.__doc__ or ""
    return cls


class SnapshotAuditError(RuntimeError):
    """A pickled system contained unregistered ``repro.*`` classes."""


def _register_all():
    """Populate the registry with every stateful simulator class.

    Grouped by subsystem; the note says what state the class carries
    into a snapshot.  Import cost is paid once, on first audit or
    registry query -- the save path never needs this.
    """
    from repro.accel.config import ArchitectureConfig
    from repro.accel.pe import (
        BurstRequester,
        PEStats,
        ProcessingElement,
        _EdgeColumns,
    )
    from repro.accel.scheduler import Job, Scheduler
    from repro.accel.system import AcceleratorSystem
    from repro.accel.template import AlgorithmSpec
    from repro.core.bank import BankParams, BankStats, MomsBank
    from repro.core.cache import CacheArray, CacheStats
    from repro.core.hierarchy import (
        DramDownstream,
        HierarchySizes,
        MemoryHierarchy,
        MomsDownstream,
    )
    from repro.core.mshr import (
        AssociativeMshrFile,
        CuckooMshrFile,
        MshrEntry,
        MshrStats,
    )
    from repro.core.subentry import ColumnarChain, SubentryStats, SubentryStore
    from repro.fabric.arbiter import RoundRobinArbiter
    from repro.fabric.area import AreaModel
    from repro.fabric.crossbar import Crossbar
    from repro.fabric.crossing import DieCrossing
    from repro.fabric.design import DesignDescription
    from repro.fabric.floorplan import Floorplan
    from repro.fabric.frequency import FrequencyModel
    from repro.faults.ledger import TokenLedger, _Scope
    from repro.faults.plan import (
        FaultController,
        FaultPlan,
        FaultState,
        Window,
    )
    from repro.faults.watchdog import Watchdog
    from repro.graph.coo import Graph
    from repro.graph.encoding import EdgeCodec
    from repro.graph.layout import GraphLayout
    from repro.graph.partition import Partitioning
    from repro.mem.dram import (
        DramChannel,
        DramStats,
        DramTimings,
        MemRequest,
        MemResponse,
        _Segment,
    )
    from repro.mem.interleave import AddressInterleaver
    from repro.mem.system import MemorySystem
    from repro.sim.channel import (
        Channel,
        DelayLine,
        MomsRequest,
        MomsResponse,
    )
    from repro.sim.engine import Engine
    from repro.sim.probe import Probe
    from repro.telemetry.collector import (
        LatencyHistogram,
        Telemetry,
        TelemetryConfig,
        _Account,
    )
    from repro.checkpoint.runner import Checkpointer
    from repro.tracing.spans import FlightRecorder, SpansConfig, SpanTracer

    for cls, note in (
        # simulation kernel
        (Engine, "now/counters, wake set, timer heap, channel list"),
        (Channel, "ring buffer, head/visible/staged cursors, waiters"),
        (DelayLine, "in-flight (ready_time, token) queue"),
        (Probe, "observer tuple; event bindings rebuilt on restore"),
        # accelerator
        (AcceleratorSystem, "component graph + externalized run-loop state"),
        (ProcessingElement, "phase machine, BRAM arrays, edge backlog"),
        (PEStats, "counters"),
        (_EdgeColumns, "decoded edge-beat columns awaiting dispatch"),
        (BurstRequester, "outstanding DMA burst bookkeeping"),
        (Scheduler, "job queue, active-source flags, counters"),
        (Job, "one (src, dst) interval work item"),
        (AlgorithmSpec, "rebuilt from its get_spec recipe (closures)"),
        (ArchitectureConfig, "frozen sizing parameters"),
        # MOMS core
        (MemoryHierarchy, "banks, crossbars, ports"),
        (MomsBank, "pipeline state, drain cursors, stats"),
        (BankParams, "frozen sizing"),
        (BankStats, "counters"),
        (CuckooMshrFile, "cuckoo tables, victim state, slot memo"),
        (AssociativeMshrFile, "entry list"),
        (MshrEntry, "tag + subentry chain head"),
        (MshrStats, "counters"),
        (SubentryStore, "scalar free-list store"),
        (ColumnarChain, "columnar subentry chains"),
        (SubentryStats, "counters"),
        (CacheArray, "tag/valid arrays, LRU state, stats"),
        (CacheStats, "counters"),
        (DramDownstream, "line-request issue counters"),
        (MomsDownstream, "line-request issue counters"),
        (HierarchySizes, "frozen sizing"),
        (MomsRequest, "in-flight MOMS request token"),
        (MomsResponse, "in-flight MOMS response token"),
        # memory system
        (MemorySystem, "functional byte image + channel list"),
        (AddressInterleaver, "frozen channel-interleave map"),
        (DramChannel, "scheduled-response queue, segment state, stats"),
        (_Segment, "one in-service line's beat schedule"),
        (DramTimings, "frozen timing parameters"),
        (DramStats, "counters"),
        (MemRequest, "in-flight DRAM request token"),
        (MemResponse, "in-flight DRAM response token"),
        # fabric
        (RoundRobinArbiter, "grant pointer"),
        (Crossbar, "per-output grant pointers"),
        (DieCrossing, "die-boundary latency stage"),
        (AreaModel, "frozen area table"),
        (DesignDescription, "frozen design point"),
        (Floorplan, "frozen die assignment"),
        (FrequencyModel, "frozen frequency table"),
        # graph + layout
        (Graph, "COO arrays"),
        (EdgeCodec, "frozen field widths"),
        (GraphLayout, "interval addressing + active-flag map"),
        (Partitioning, "interval tables"),
        # robustness + observability hooks
        (TokenLedger, "outstanding-token scoreboard"),
        (_Scope, "per-scope issue/retire counters"),
        (Watchdog, "progress baseline + next_check"),
        (FaultState, "fault stats + splitmix chain"),
        (FaultController, "window edge state"),
        (FaultPlan, "declarative schedule"),
        (Window, "periodic window triple"),
        (Telemetry, "samples, accounts, histograms, spans"),
        (TelemetryConfig, "frozen config"),
        (LatencyHistogram, "log2 buckets"),
        (_Account, "stall attribution buckets"),
        (Checkpointer, "schedule + last-write info (path travels along)"),
        (SpanTracer, "in-flight span/fetch maps, seq counters, fan-ins"),
        (SpansConfig, "frozen sampling config"),
        (FlightRecorder, "bounded last-N-events ring"),
    ):
        register(cls, note)


_REGISTERED = False


def ensure_registry():
    """Idempotently populate and return the registry."""
    global _REGISTERED
    if not _REGISTERED:
        _register_all()
        _REGISTERED = True
    return SNAPSHOT_REGISTRY


class _AuditPickler(pickle.Pickler):
    """Pickler that records every ``repro.*`` instance class it meets."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = set()

    def reducer_override(self, obj):
        cls = type(obj)
        if getattr(cls, "__module__", "").startswith("repro."):
            self.seen.add(cls)
        return NotImplemented  # always fall back to normal reduction


def audit_system(system):
    """Pickle *system* and verify every repro class met is registered.

    Returns the set of repro classes the snapshot carries.  Raises
    :class:`SnapshotAuditError` naming any unregistered class -- the
    signal that a new stateful component was added without deciding
    its snapshot story.
    """
    registry = ensure_registry()
    pickler = _AuditPickler(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
    pickle_error = None
    try:
        pickler.dump(system)
    except Exception as error:  # report unregistered classes first
        pickle_error = error
    unregistered = sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in pickler.seen if cls not in registry
    )
    if unregistered:
        raise SnapshotAuditError(
            "classes reached by a system snapshot but not declared in "
            "repro.checkpoint.protocol.SNAPSHOT_REGISTRY: "
            + ", ".join(unregistered)
            + " -- register each (with a note on what state it carries) "
            "after checking its instance state pickles cleanly"
        )
    if pickle_error is not None:
        raise SnapshotAuditError(
            f"system failed to pickle during audit: {pickle_error!r}"
        ) from pickle_error
    return pickler.seen
