"""Compare two full-set benchmark results from ``bench/run.py --out``.

    python3 bench/compare.py PARENT.json CHANGE.json

For every (workload, end-to-end metric) pair it prints the two medians,
their ratio with the parent as base, the parent's spread and a verdict:

* ``improved``: the change wins at least nine tenths of at least ten
  index-paired runs, and the medians differ by more than the parent's
  quartile distance;
* ``unresolved``: the parent's quartile distance is wider than the
  metric's bound, and not every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound in BENCHMARK.json;
* ``unchanged``: anything else.

It also checks that the model counts of the traced runs and every
``gteps`` value are identical, as they must be for a change to the
simulator alone.  The exit code is 1 if anything regressed or the model
moved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Fewest paired runs on which a gain may be claimed.
MIN_PAIRS = 10


def load_metrics(path=BENCHMARK):
    """``{name: (unit, better, bound)}`` for the end-to-end metrics."""
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]}


def quartile_distance(values):
    """Distance between the first and third quartile (inf below two)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better, bound):
    """Verdict for one metric from its parent and change run values."""
    sign = 1 if better == "higher" else -1
    parent_median = statistics.median(parent)
    gain = sign * (statistics.median(change) - parent_median)
    spread = quartile_distance(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and gain > spread:
        return "improved"
    every_run_better = min(sign * (c - p) for c in change for p in parent) > 0
    if spread > bound * abs(parent_median) and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(parent_median):
        return "regressed"
    return "unchanged"


def model_differences(parent, change):
    """Names of model counts that differ, per workload."""
    names = parent["model_metrics"]
    found = {}
    for workload, old in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None or old["traced"] is None or new["traced"] is None:
            found[workload] = ["<traced run missing>"]
            continue
        differ = [name for name in names
                  if old["traced"]["metrics"][name]["value"]
                  != new["traced"]["metrics"][name]["value"]]
        gteps = {run["metrics"]["gteps"]["value"]
                 for entry in (old, new) for run in entry["runs"]}
        if len(gteps) > 1:
            differ.append("gteps")
        if differ:
            found[workload] = differ
    return found


def compare(parent, change, metrics):
    """Print the table; returns the number of regressions and model moves."""
    bad = 0
    print(f"{'workload':12s} {'metric':14s} {'parent':>12s} {'change':>12s} "
          f"{'ratio':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, old in parent["workloads"].items():
        new = change["workloads"][workload]
        for name, (unit, better, bound) in metrics.items():
            before = [run["metrics"][name]["value"] for run in old["runs"]]
            after = [run["metrics"][name]["value"] for run in new["runs"]]
            if not before or not after:
                print(f"{workload:12s} {name:14s} no runs")
                bad += 1
                continue
            base = statistics.median(before)
            median = statistics.median(after)
            result = verdict(before, after, better, bound)
            bad += result == "regressed"
            print(f"{workload:12s} {name:14s} {base:12.5g} {median:12.5g} "
                  f"{median / base:7.4f} "
                  f"{quartile_distance(before) / abs(base):7.2%} "
                  f"{bound:6.0%}  {result}  "
                  f"(base: parent median {base:.6g} {unit}, "
                  f"n={len(before)}/{len(after)})")
    moved = model_differences(parent, change)
    for workload, names in moved.items():
        print(f"model moved on {workload}: {', '.join(names)}")
    if not moved:
        print("model counts and gteps identical on every workload")
    return bad + len(moved)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="bench/run.py --out of the parent")
    parser.add_argument("change", help="bench/run.py --out of the change")
    args = parser.parse_args(argv)
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    if parent["seed"] != change["seed"]:
        parser.error(f"seeds differ ({parent['seed']} and {change['seed']}); "
                     "compare runs made with the same --seed")
    return 1 if compare(parent, change, load_metrics()) else 0


if __name__ == "__main__":
    sys.exit(main())
