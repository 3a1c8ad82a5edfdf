"""Engine activity statistics: per-component tick/wake accounting.

The demand-driven engine (:mod:`repro.sim.engine`) counts how often
each component was woken and ticked; this module aggregates those
counters into scheduler-efficiency summaries -- per run, per component
class, and merged across the points of a sweep (the parallel sweep
runner returns one :class:`EngineActivity` per point and sums them).

The headline number is the *tick fraction*: ticks actually executed
divided by the ``cycles x components`` an all-tick engine would have
executed.  It is the demand-driven engine's saved work, and it is
purely a scheduling metric -- cycle results are bit-identical between
the two engines.
"""

from dataclasses import dataclass, field, fields

# Schema version of EngineActivity.as_dict() rows.  Bumped whenever a
# field is added/renamed so journaled rows written by other code
# versions are recognizable; from_dict() is tolerant in both
# directions (unknown keys are dropped, missing keys take defaults),
# which is what lets `--resume` reuse a journal across code changes.
# v3 added the macro-tick fusion counters (fused_runs, fused_cycles,
# fusion_abort_reasons).
ACTIVITY_SCHEMA_VERSION = 3


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
    # Macro-tick fusion counters: fused runs issued, cycles covered by
    # them, and why fusion attempts were abandoned ({reason: count}).
    # Execution-strategy metadata, not architectural state -- always
    # present (explicit zeros when nothing fused).
    fused_runs: int = 0
    fused_cycles: int = 0
    fusion_abort_reasons: dict = field(default_factory=dict)
    # Per-component-class {"count", "ticks", "wakes"} rows (see
    # component_breakdown); summed across merged runs.
    by_kind: dict = field(default_factory=dict)

    @classmethod
    def from_engine(cls, engine):
        """Snapshot the counters of one engine after a run."""
        by_kind = {
            entry.kind: {"count": entry.count, "ticks": entry.ticks,
                         "wakes": entry.wakes}
            for entry in component_breakdown(engine)
        }
        return cls(
            cycles_simulated=engine.cycles_simulated,
            cycles_skipped=engine.cycles_skipped,
            component_ticks=engine.component_ticks,
            component_wakes=engine.component_wakes,
            all_tick_equivalent=(
                engine.cycles_simulated * len(engine._components)
            ),
            runs=1,
            fused_runs=engine.fused_runs,
            fused_cycles=engine.fused_cycles,
            fusion_abort_reasons=dict(engine.fusion_abort_reasons),
            by_kind=by_kind,
        )

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`as_dict` output (e.g. across processes).

        Tolerant by design: keys this code version does not know
        (including the ``version`` marker itself, or fields added by a
        newer version) are ignored, and absent fields keep their
        defaults, so resumed journals survive schema drift.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def as_dict(self):
        return {
            "version": ACTIVITY_SCHEMA_VERSION,
            "cycles_simulated": self.cycles_simulated,
            "cycles_skipped": self.cycles_skipped,
            "component_ticks": self.component_ticks,
            "component_wakes": self.component_wakes,
            "all_tick_equivalent": self.all_tick_equivalent,
            "runs": self.runs,
            "fused_runs": self.fused_runs,
            "fused_cycles": self.fused_cycles,
            "mean_run_len": round(self.mean_run_len, 2),
            "fusion_abort_reasons": {
                reason: self.fusion_abort_reasons[reason]
                for reason in sorted(self.fusion_abort_reasons)
            },
            "by_kind": {kind: dict(row)
                        for kind, row in self.by_kind.items()},
        }

    def merge(self, other):
        """Accumulate *other* (an EngineActivity or its dict) in place."""
        if isinstance(other, dict):
            other = EngineActivity.from_dict(other)
        self.cycles_simulated += other.cycles_simulated
        self.cycles_skipped += other.cycles_skipped
        self.component_ticks += other.component_ticks
        self.component_wakes += other.component_wakes
        self.all_tick_equivalent += other.all_tick_equivalent
        self.runs += other.runs
        self.fused_runs += other.fused_runs
        self.fused_cycles += other.fused_cycles
        for reason, count in other.fusion_abort_reasons.items():
            self.fusion_abort_reasons[reason] = (
                self.fusion_abort_reasons.get(reason, 0) + count
            )
        for kind, row in other.by_kind.items():
            mine = self.by_kind.get(kind)
            if mine is None:
                self.by_kind[kind] = dict(row)
            else:
                for key, value in row.items():
                    mine[key] = mine.get(key, 0) + value
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

    @property
    def mean_run_len(self):
        """Average cycles covered per fused macro-tick run."""
        if not self.fused_runs:
            return 0.0
        return self.fused_cycles / self.fused_runs

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
        if self.fused_runs:
            parts.append(
                f"fused {self.fused_cycles:,} cycles in "
                f"{self.fused_runs:,} runs "
                f"(mean {self.mean_run_len:.0f})"
            )
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
