"""Command-line entry point: run any paper experiment by name.

Usage::

    python -m repro list
    python -m repro fig11            # quick mode
    python -m repro fig15 --full     # full scaled suite
    python -m repro all              # everything (slow)
    python -m repro trace --graph RV --algorithm bfs \
        --out out/rv                 # observed run: one Perfetto timeline
                                     # plus timeline/summary/span files
    python -m repro profile --graph RV --org two-level \
                                     # cProfile one point, component table

Sweeps run one forked process per point, ``REPRO_JOBS`` at a time
(``REPRO_JOBS=1`` runs them in-process).  Any resilience flag sends
even a serial sweep through the forked runner (see
``repro.experiments.common.SweepPolicy``)::

    python -m repro fig11 --timeout 600 --retries 2 --journal fig11.jsonl
    python -m repro fig11 --journal fig11.jsonl --resume
    python -m repro fig11 --retries 2 --checkpoint-dir snaps/ \
        --checkpoint-interval 50000   # retries resume mid-point

Checkpoint & replay (see ``repro.checkpoint``)::

    python -m repro replay out/run.snap   # resume a snapshot to the end
"""

import argparse
import importlib
import sys

EXPERIMENTS = {
    "fig01": "fig01_motivation",
    "fig11": "fig11_architectures",
    "fig12": "fig12_hitrate",
    "fig13": "fig13_preprocessing",
    "fig14": "fig14_channels",
    "fig15": "fig15_cache_impact",
    "fig16": "fig16_sota",
    "fig17": "fig17_resources",
    "table2": "table2_datasets",
    "table3": "table3_preprocessing_time",
    "ablation": "ablation_moms_sizing",
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment key (see 'list'), 'list'/'all', 'trace', "
             "'profile' or 'replay'",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="snapshot path (for the 'replay' command)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the full scaled suite instead of quick mode",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget; over-budget workers are killed",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed point (exponential backoff)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="JSON-lines checkpoint journal for completed points",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse matching completed points from --journal",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="per-point snapshot directory; crashed or timed-out "
             "points resume from their last snapshot on retry",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="CYCLES",
        help="snapshot cadence for --checkpoint-dir (cycles)",
    )
    from repro.telemetry.cli import add_trace_arguments

    trace_group = parser.add_argument_group(
        "trace options (for the 'trace' command)"
    )
    add_trace_arguments(trace_group)
    from repro.profiling import add_profile_arguments

    profile_group = parser.add_argument_group(
        "profile options (for the 'profile' command)"
    )
    add_profile_arguments(profile_group)
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for key, module in sorted(EXPERIMENTS.items()):
            print(f"{key:10s} repro.experiments.{module}")
        print(f"{'trace':10s} repro.telemetry.cli")
        print(f"{'profile':10s} repro.profiling")
        print(f"{'replay':10s} repro.checkpoint.runner")
        return 0

    if args.experiment == "replay":
        if not args.target:
            parser.error("replay requires a snapshot path: "
                         "python -m repro replay <snapshot>")
        from repro.checkpoint import read_header, replay_snapshot

        header = read_header(args.target)
        print(f"replaying {args.target}: {header['algorithm']}/"
              f"{header['organization']} from cycle {header['cycle']} "
              f"(iteration {header.get('iterations', 0)})")
        from repro.faults.watchdog import WatchdogError

        try:
            result, _header = replay_snapshot(args.target)
        except WatchdogError as error:
            # Surface the embedded flight-recorder tail alongside the
            # stall diagnosis instead of a bare traceback.
            from repro.faults.report import format_stall_report

            print(format_stall_report(error.report))
            return 1
        print(f"finished at cycle {result.cycles} after "
              f"{result.iterations} iteration(s)")
        return 0

    if args.experiment == "trace":
        from repro.telemetry.cli import run_trace

        return run_trace(args)

    if args.experiment == "profile":
        from repro.profiling import run_profile

        return run_profile(args)

    if args.resume and not args.journal:
        parser.error("--resume requires --journal")

    keys = (sorted(EXPERIMENTS) if args.experiment == "all"
            else [args.experiment])
    from repro.experiments.common import (
        SweepFailure,
        configure_sweep,
        reset_sweep_activity,
    )
    from repro.report import component_breakdown_table, engine_summary_line

    if (args.timeout is not None or args.retries or args.journal
            or args.checkpoint_dir):
        configure_sweep(
            timeout=args.timeout,
            retries=args.retries,
            journal=args.journal,
            resume=args.resume,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
        )

    for key in keys:
        if key not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {key!r}; try 'python -m repro list'"
            )
        module = importlib.import_module(
            f"repro.experiments.{EXPERIMENTS[key]}"
        )
        reset_sweep_activity()
        try:
            _rows, text = module.run(quick=not args.full)
        except SweepFailure as failure:
            print(f"{key}: SWEEP FAILED -- {failure.completed} point(s) "
                  f"completed, {len(failure.failures)} failed permanently:")
            for index, error in sorted(failure.failures.items()):
                first_line = str(error).splitlines()[0]
                print(f"  point {index}: {first_line}")
            if args.journal:
                print(f"  completed points are checkpointed in "
                      f"{args.journal}; re-run with --resume to retry "
                      f"only the failures")
            return 1
        print(text)
        print(engine_summary_line())
        breakdown = component_breakdown_table()
        if breakdown:
            print(breakdown)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
