"""Engine activity statistics: per-component tick/wake accounting.

Aggregates the counters of :meth:`repro.sim.engine.Engine.activity`
into scheduler-efficiency summaries -- per run, per component class,
and merged across the points of a sweep.  The headline number is the
*tick fraction*: ticks executed over the ``cycles x components`` an
all-tick engine would execute, a purely scheduling metric.
"""

from dataclasses import asdict, dataclass, field, fields

from repro.records import Record

# Schema version of EngineActivity.as_dict() rows; from_dict() stays
# tolerant in both directions so `--resume` reuses journals across
# code changes.  v4 dropped v3's macro-tick fusion counters.
ACTIVITY_SCHEMA_VERSION = 4

ACTIVITY_RECORD = Record(
    "engine activity", "version", ACTIVITY_SCHEMA_VERSION, (
        "version", "cycles_simulated", "cycles_skipped",
        "component_ticks", "component_wakes", "all_tick_equivalent",
        "runs", "by_kind",
    ))


def _add_counts(into, other):
    """Sum the (possibly nested) count dict *other* into *into*."""
    for key, value in other.items():
        if isinstance(value, dict):
            _add_counts(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


@dataclass
class EngineActivity:
    """Scheduler-efficiency counters for one run (or a merged sweep)."""

    cycles_simulated: int = 0
    cycles_skipped: int = 0
    component_ticks: int = 0
    component_wakes: int = 0
    # Sum over runs of cycles_simulated * n_components: the tick count
    # an all-tick engine would have executed.  Kept as a plain sum so
    # runs with different component counts merge correctly.
    all_tick_equivalent: int = 0
    runs: int = 0
    # Per-component-class {"count", "ticks", "wakes"} rows (see
    # component_breakdown); summed across merged runs.
    by_kind: dict = field(default_factory=dict)

    @classmethod
    def from_engine(cls, engine):
        """Snapshot the counters of one engine after a run."""
        counters = engine.activity()
        by_kind = {
            entry.kind: {"count": entry.count, "ticks": entry.ticks,
                         "wakes": entry.wakes}
            for entry in component_breakdown(engine)
        }
        return cls.from_dict(dict(
            counters, runs=1, by_kind=by_kind,
            all_tick_equivalent=(
                counters["cycles_simulated"] * counters["n_components"]
            ),
        ))

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`as_dict` output (e.g. across processes).

        Tolerant by design: unknown keys (``version`` included) are
        ignored and absent fields keep their defaults, so resumed
        journals survive schema drift.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def as_dict(self):
        return ACTIVITY_RECORD.row(**asdict(self))  # deep-copies by_kind

    def merge(self, other):
        """Accumulate *other* (an EngineActivity or its dict) in place."""
        if isinstance(other, dict):
            other = EngineActivity.from_dict(other)
        for f in fields(self):
            mine = getattr(self, f.name)
            if isinstance(mine, dict):
                _add_counts(mine, getattr(other, f.name))
            else:
                setattr(self, f.name, mine + getattr(other, f.name))
        return self

    @property
    def cycles_total(self):
        """Cycles covered including the idle windows jumped over."""
        return self.cycles_simulated + self.cycles_skipped

    @property
    def tick_fraction(self):
        """Executed ticks as a share of the all-tick equivalent."""
        if not self.all_tick_equivalent:
            return 0.0
        return self.component_ticks / self.all_tick_equivalent

    @property
    def ticks_avoided(self):
        return self.all_tick_equivalent - self.component_ticks

    def summary_line(self, jobs=None):
        """One-line scheduler summary for reports and benchmark logs."""
        parts = [
            f"engine: {self.cycles_simulated:,} cycles simulated",
            f"{self.cycles_skipped:,} fast-forwarded",
            f"ticks {self.component_ticks:,}"
            f"/{self.all_tick_equivalent:,}"
            f" ({100.0 * self.tick_fraction:.1f}% of all-tick)",
            f"wakes {self.component_wakes:,}",
        ]
        if self.runs > 1:
            parts.append(f"{self.runs} runs")
        if jobs is not None:
            parts.append(f"jobs={jobs}")
        return ", ".join(parts)


@dataclass
class ComponentActivity:
    """Tick/wake counters for one component class."""

    kind: str
    count: int = 0
    ticks: int = 0
    wakes: int = 0


def component_breakdown(engine):
    """Per-component-class tick/wake rows, busiest class first.

    Every :class:`repro.sim.Component` carries ``ticks`` and ``wakes``
    counters maintained by the engine; this groups them by class for
    "who is still ticking" diagnostics.
    """
    by_kind = {}
    for component in engine._components:
        kind = type(component).__name__
        entry = by_kind.get(kind)
        if entry is None:
            entry = by_kind[kind] = ComponentActivity(kind)
        entry.count += 1
        entry.ticks += component.ticks
        entry.wakes += component.wakes
    return sorted(by_kind.values(), key=lambda e: -e.ticks)


def breakdown_rows(by_kind, limit=None):
    """Render a ``by_kind`` mapping as report-table rows, busiest first.

    Accepts the dict form carried by :class:`EngineActivity` (merged
    across sweep points and processes); ``limit`` keeps the table to
    the top-N classes.
    """
    rows = [
        {"component": kind,
         "count": row.get("count", 0),
         "ticks": row.get("ticks", 0),
         "wakes": row.get("wakes", 0)}
        for kind, row in by_kind.items()
    ]
    rows.sort(key=lambda r: -r["ticks"])
    if limit is not None:
        rows = rows[:limit]
    return rows
