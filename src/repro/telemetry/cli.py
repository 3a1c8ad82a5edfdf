"""The ``python -m repro trace`` subcommand.

Runs one (graph, algorithm) point with its one run observer,
:class:`~repro.telemetry.Telemetry`, attached, and writes one file::

    python -m repro trace --graph RV --algorithm bfs --interval 64 \
        --rate 16 --out out/rv

writes ``out/rv.trace.json``, the one Perfetto timeline of
:mod:`repro.timeline`: every gauge series as a counter, the PE phases,
each sampled request's flow and full span record, and in ``otherData``
the run identity, the telemetry summary with its stall tables and
histograms, and the span summary (stage percentiles, merge fan-in).
The file is re-read and validated, both summaries through their
records, before the command reports success, so the CI trace-smoke job
is just this command.  ``--interval`` and ``--rate`` below 1 are
refused (exit 2) before anything runs.
"""

import os


def add_trace_arguments(parser):
    """Attach the trace-specific flags to the __main__ parser."""
    parser.add_argument(
        "--graph", default="RV", metavar="KEY",
        help="benchmark graph key (see repro.graph.datasets; default RV)",
    )
    parser.add_argument(
        "--algorithm", default="pagerank",
        choices=("pagerank", "bfs", "sssp", "scc"),
        help="algorithm to run (default pagerank)",
    )
    parser.add_argument(
        "--interval", type=int, default=64, metavar="CYCLES",
        help="gauge sampling interval in cycles (default 64)",
    )
    parser.add_argument(
        "--rate", type=int, default=16, metavar="N",
        help="trace 1 of every N requests per PE (default 16)",
    )
    parser.add_argument(
        "--out", default="telemetry/trace", metavar="PREFIX",
        help="output path prefix (default telemetry/trace)",
    )


def run_trace(args, log=print):
    """Run the observed point, export, validate; returns an exit code."""
    # Imported here: the CLI parser must stay importable without the
    # simulation stack.
    from repro.experiments.common import cli_point
    from repro.fabric.design import MOMS_TWO_LEVEL
    from repro.report import format_table, telemetry_summary_line
    from repro.telemetry.analyze import STAGE_ORDER
    from repro.telemetry.collector import (BANK_REASONS, PE_REASONS,
                                           TelemetryConfig)
    from repro.timeline import validate_trace, write_trace

    try:
        config = TelemetryConfig(sample_interval=args.interval,
                                 sample_rate=args.rate)
    except ValueError as error:
        log(f"[trace] {error}")
        return 2
    graph, system, budget = cli_point(args, MOMS_TWO_LEVEL,
                                      telemetry=config)
    log(f"[trace] {args.graph} / {args.algorithm}: "
        f"{graph.n_nodes:,} nodes, {graph.n_edges:,} edges, "
        f"sampling every {args.interval} cycles and 1/{args.rate} "
        f"requests")
    result = system.run(max_iterations=budget)
    telemetry = system.telemetry
    spans = result.stats["spans"]
    log(f"[trace] ran {result.cycles:,} cycles, "
        f"{result.iterations} iteration(s), "
        f"{result.edges_processed:,} edges; traced "
        f"{spans['spans_completed']}/{spans['requests_seen']:,} "
        f"requests ({spans['spans_live']} still in flight)")

    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    path = f"{args.out}.trace.json"
    run = {"graph": args.graph, "algorithm": args.algorithm,
           "run_cycles": result.cycles, "gteps": result.gteps}
    events = write_trace(path, telemetry, run=run)
    # Self-validate the export; a violation is a command failure (this
    # is the CI gate).
    counts = validate_trace(path)

    stages = spans["stages"]
    for table, columns, title in (
        (telemetry.pe_stall_table(), ["component", *PE_REASONS, "total"],
         "PE cycle accounting (sums to run cycles per row)"),
        (telemetry.bank_stall_table(),
         ["component", *BANK_REASONS, "total"], "bank cycle accounting"),
        ([dict(stages[stage], stage=stage)
          for stage in STAGE_ORDER if stage in stages],
         ["stage", "kind", "count", "p50", "p99", "p999", "max", "mean"],
         "per-stage latency decomposition (cycles, exact nearest-rank "
         "percentiles)"),
    ):
        log("")
        log(format_table(table, columns=columns, title=title))
    totals = stages.get("_totals", {})
    queueing = totals.get("queueing_cycles", 0)
    service = totals.get("service_cycles", 0)
    split = queueing / (queueing + service) if queueing + service else 0.0
    log("")
    log(telemetry_summary_line(telemetry.summary()))
    log(f"[trace] critical path: {queueing:,} queueing vs "
        f"{service:,} service cycles ({split:.0%} queueing) | "
        f"mshr merge rate {result.stats['mshr_merge_rate']:.1%}")
    log(f"[trace] validated {events} trace events {counts}: "
        f"{len(telemetry.samples)} gauge rows, {len(telemetry.spans)} spans")
    log(f"[trace] wrote {path}")
    log("[trace] open the trace at https://ui.perfetto.dev "
        "(arrows follow sampled requests across PE/bank/DRAM tracks)")
    return 0
