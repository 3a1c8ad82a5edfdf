"""Plain-text table rendering for experiment results.

Every experiment returns a list of row dicts; this module renders them
the way the paper's tables/figures would read in a terminal, and the
benchmark harness prints them under pytest-benchmark.
"""


def format_table(rows, columns=None, title=None, floatfmt="{:.3f}"):
    """Render a list of dicts as an aligned text table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)

    def cell(value):
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    table = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)


def engine_summary_line(activity=None, jobs=None):
    """One-line scheduler-efficiency summary for experiment logs.

    With no arguments, reports the process-wide sweep tally (every
    point run through ``repro.experiments.common.run_sweep``, local or
    in worker processes) and the active ``REPRO_JOBS`` worker count.
    ``activity`` may be an :class:`repro.core.stats.EngineActivity` or
    its ``as_dict()`` form.
    """
    from repro.core.stats import EngineActivity

    if activity is None:
        from repro.experiments.common import default_jobs, sweep_activity

        activity = sweep_activity()
        if jobs is None:
            jobs = default_jobs()
    if isinstance(activity, dict):
        activity = EngineActivity.from_dict(activity)
    return activity.summary_line(jobs=jobs)


def component_breakdown_table(by_kind=None, limit=6, title=None):
    """Per-component-class tick/wake table ("who is ticking").

    With no argument, renders the process-wide sweep tally's breakdown
    (merged across points and worker processes).  Returns "" when no
    breakdown is available -- e.g. a journal row written by an older
    schema -- so callers can print unconditionally.
    """
    from repro.core.stats import breakdown_rows

    if by_kind is None:
        from repro.experiments.common import sweep_activity

        by_kind = sweep_activity().by_kind
    if not by_kind:
        return ""
    rows = breakdown_rows(by_kind, limit=limit)
    return format_table(
        rows,
        columns=["component", "count", "ticks", "wakes"],
        title=title or "component ticks (busiest classes)",
    )


def telemetry_summary_line(summary):
    """One-line digest of a run's telemetry summary dict.

    Indexes the summary directly: a renamed key is a KeyError here,
    not a line of silent zeros.
    """
    if not summary:
        return ""
    dram = summary["dram"]
    latency = summary["dram_latency"]
    return (
        f"telemetry: mshr peak {summary['mshr_peak']} "
        f"(mean {summary['mshr_mean']}), "
        f"mshr merge rate {summary['cache']['merge_rate']:.1%}, "
        f"dram p50/p99 latency "
        f"{latency['p50']}/{latency['p99']} cycles, "
        f"single-line fraction {dram['single_line_fraction']:.2f}, "
        f"effective bw ratio {dram['effective_bw_ratio']:.2f}, "
        f"{summary['samples']} samples"
    )


def geomean(values):
    """Geometric mean, ignoring non-positive entries."""
    import math

    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))
