"""The repo benchmark: three simulator workloads, end to end and per layer.

One run repeats one workload in this process for ``--seconds`` and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``::

    python3 bench/run.py --workload pr-orgs --seed 0 --seconds 25 --trace 0

Without ``--workload`` it runs the full set: ``--repeats`` rounds of one
fresh child run per workload, interleaved round-robin (A B C A B C ...),
then one traced child run per workload, one child at a time.  It prints
the median, min, max and n of every end-to-end metric and the per-layer
table, and writes every child's result to ``--out`` for
``bench/compare.py``::

    python3 bench/run.py --seed 0 --repeats 5 --out results.json

The simulator is imported from ``src/`` next to this directory with every
``REPRO_*`` environment variable removed, in this process and in its
children, so it always runs in its shipping default configuration.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Default length of one run; equals ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 25
#: A child run is killed after this long (a run takes ``--seconds`` plus
#: at most one repeat and set-up).
CHILD_TIMEOUT_S = 600


def clean_env(environ):
    """*environ* without the simulator's ``REPRO_*`` knobs."""
    return {key: value for key, value in environ.items()
            if not key.startswith("REPRO_")}


def spawn(argv):
    """Run *argv* with a clean environment; its last stdout line as JSON."""
    done = subprocess.run(argv, env=clean_env(os.environ), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}")
    return json.loads(lines[-1])


def _import_simulator():
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"no simulator source under {src}")
    sys.path.insert(0, str(src))
    import measure
    import workloads
    return measure, workloads


def _metric_rows(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def run_one(args, measure, workloads):
    """One run of one workload; prints the result line."""
    workload = workloads.WORKLOADS[args.workload]
    result = measure.run_workload(workload, args.seed, args.seconds,
                                  trace=bool(args.trace))
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    untraced = [rep for rep in result.repeats if rep.host is None]
    print(f"{workload.name} seed {args.seed}: {len(result.repeats)} "
          f"repeats ({len(untraced)} untraced) of {len(workload.points)} "
          f"point(s), {result.failed} of {result.attempted} failed")
    if args.trace:
        metrics = _metric_rows(result.per_layer(), measure.PER_LAYER)
        print(f"binding layer: {measure.binding_layer(result.model())}")
        unknown = sorted({name for rep in result.repeats
                          for name in rep.unknown_layers})
        if unknown:
            print(f"timed layers missing from the metric list: {unknown}")
    else:
        metrics = _metric_rows(result.end_to_end(), measure.END_TO_END)
    for name, row in metrics.items():
        print(f"  {name:34s} {row['value']:.6g} {row['unit']}")
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def _child(args, workload, trace):
    return spawn([sys.executable, str(BENCH_DIR / "run.py"),
                  "--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(trace)])


def run_all(args, measure, workloads):
    """The interleaved set over every workload; returns the exit code."""
    names = list(workloads.WORKLOADS)
    report = {
        "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats,
        "model_metrics": list(measure.MODEL_METRICS),
        "workloads": {name: {"runs": [], "traced": None} for name in names},
    }
    ok = True
    plan = [(name, 0) for _ in range(args.repeats) for name in names]
    plan += [(name, 1) for name in names]
    for index, (name, trace) in enumerate(plan, 1):
        print(f"[{index}/{len(plan)}] {name} trace={trace}", flush=True)
        try:
            result = _child(args, name, trace)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as error:
            print(f"  child failed: {error}", flush=True)
            ok = False
            continue
        ok = ok and result["correct"]
        entry = report["workloads"][name]
        if trace:
            entry["traced"] = result
        else:
            entry["runs"].append(result)
    _print_report(report, measure)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


def _print_report(report, measure):
    print(f"\nend to end (seed {report['seed']}, {report['seconds']} s "
          f"runs; median [min, max] over n runs)")
    for name, entry in report["workloads"].items():
        runs = entry["runs"]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(f"{name}: {len(runs)} runs, failed_fraction "
              f"{failed / attempted if attempted else float('nan'):.4g}")
        for metric, unit in measure.END_TO_END.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            if values:
                print(f"  {metric:14s} {statistics.median(values):12.6g} "
                      f"[{min(values):.6g}, {max(values):.6g}] "
                      f"n={len(values)} {unit}")
    traced = {name: entry["traced"]["metrics"]
              for name, entry in report["workloads"].items()
              if entry["traced"] is not None}
    if not traced:
        return
    print("\nper layer (one traced run each)")
    print(f"{'metric':36s}" + "".join(f"{name:>14s}" for name in traced))
    for metric, unit in measure.PER_LAYER.items():
        print(f"{metric + ' [' + unit + ']':36s}" + "".join(
            f"{metrics[metric]['value']:14.5g}"
            for metrics in traced.values()))
    print(f"{'binding layer':36s}" + "".join(
        f"{measure.binding_layer({k: v['value'] for k, v in m.items()}):>14s}"
        for m in traced.values()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run one workload (default: the full set)")
    parser.add_argument("--seed", type=int, default=0,
                        help="graph-generation seed (default 0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"length of one run (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one run: report per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5,
                        help="full set: untraced runs per workload")
    parser.add_argument("--out", help="full set: write the results here")
    args = parser.parse_args(argv)
    measure, workloads = _import_simulator()
    if args.workload is None:
        return run_all(args, measure, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    return run_one(args, measure, workloads)


if __name__ == "__main__":
    sys.exit(main())
