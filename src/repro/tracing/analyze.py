"""Critical-path decomposition of sampled request spans.

Each completed span is cut into consecutive per-stage segments on the
request's own timeline, labelled queueing or service:

========== ========= ====================================================
stage      kind      segment
========== ========= ====================================================
queue      queueing  PE issue -> bank outcome (crossbar + input queues)
miss_wait  queueing  bank outcome -> line drain begins (subentry wait)
drain      service   drain begins -> this request's replay
return     service   replay (or hit outcome) -> PE retire
total      --        PE issue -> PE retire
dram_queue queueing  line-fetch issue -> DRAM channel accepts it
dram_svc   service   DRAM accept -> last beat delivered
========== ========= ====================================================

``queue + miss_wait + drain + return == total`` for misses and
``queue + return == total`` for hits -- an exact accounting that
:func:`analyze_spans` checks on every span it aggregates.  The DRAM
stages describe the span's *line fetch* (shared by every request that
merged into the same MSHR), so they are aggregated separately rather
than summed into ``total``.

Percentiles are **exact** (nearest-rank over the stored per-stage
samples), unlike the telemetry histograms' log2-bucket upper bounds:
tail attribution is the whole point here, so the analyzer keeps the
raw durations and pays the memory.
"""

import math

QUEUEING_STAGES = ("queue", "miss_wait", "dram_queue")
SERVICE_STAGES = ("drain", "return", "dram_svc")
STAGE_ORDER = ("queue", "miss_wait", "drain", "return",
               "dram_queue", "dram_svc", "total")
_ON_REQUEST = ("queue", "miss_wait", "drain", "return")


def decompose(span):
    """Per-stage durations (cycles) for one span; missing stages omitted."""
    stages = {}
    issue = span["issue"]
    outcome = span.get("outcome_cycle")
    drain_begin = span.get("drain_begin")
    replay = span.get("replay")
    retire = span.get("retire")
    if outcome is not None:
        stages["queue"] = outcome - issue
        if drain_begin is not None:
            stages["miss_wait"] = drain_begin - outcome
        if drain_begin is not None and replay is not None:
            stages["drain"] = replay - drain_begin
        if retire is not None:
            tail_from = replay if replay is not None else outcome
            stages["return"] = retire - tail_from
    if retire is not None:
        stages["total"] = retire - issue
    accept = span.get("dram_accept")
    if accept is not None and "fetch_issue" in span:
        # A private-bank fetch that merged at the shared level can join
        # a DRAM transaction accepted before this fetch even issued
        # (accept < fetch_issue); such late joiners paid no DRAM
        # queueing of their own, so the stage floors at zero.
        stages["dram_queue"] = max(0, accept - span["fetch_issue"])
        if span.get("dram_deliver") is not None:
            stages["dram_svc"] = span["dram_deliver"] - accept
    return stages


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending-sorted sample list."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _stage_stats(values):
    values = sorted(values)
    count = len(values)
    return {
        "count": count,
        "p50": percentile(values, 0.50),
        "p99": percentile(values, 0.99),
        "p999": percentile(values, 0.999),
        "max": values[-1] if values else 0,
        "mean": round(sum(values) / count, 2) if count else 0.0,
    }


def analyze_spans(spans):
    """Aggregate exact per-stage stats over *spans* (completed only).

    Returns ``{stage: {count, p50, p99, p999, max, mean, kind}}`` in
    the fixed :data:`STAGE_ORDER`, plus queueing/service cycle totals
    under ``"_totals"`` so reports can state the critical-path split
    in one line.  Raises ``ValueError`` on a span whose on-request
    stages do not sum to its total (an event missing or out of order).
    """
    samples = {stage: [] for stage in STAGE_ORDER}
    queueing = service = 0
    for span in spans:
        stages = decompose(span)
        parts = sum(stages.get(stage, 0) for stage in _ON_REQUEST)
        if "total" in stages and parts != stages["total"]:
            raise ValueError(
                f"span pe{span['pe']}#{span['seq']}: stage sum {parts} "
                f"!= total {stages['total']}")
        for stage, duration in stages.items():
            samples[stage].append(duration)
            if stage in QUEUEING_STAGES:
                queueing += duration
            elif stage in SERVICE_STAGES:
                service += duration
    out = {}
    for stage in STAGE_ORDER:
        if not samples[stage]:
            continue
        stats = _stage_stats(samples[stage])
        if stage in QUEUEING_STAGES:
            stats["kind"] = "queueing"
        elif stage in SERVICE_STAGES:
            stats["kind"] = "service"
        else:
            stats["kind"] = "end_to_end"
        out[stage] = stats
    out["_totals"] = {"queueing_cycles": queueing, "service_cycles": service}
    return out
