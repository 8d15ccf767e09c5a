#!/usr/bin/env python3
"""Compares two run_benchmark.py results files under BENCHMARK.json's bounds.

    python3 ddp_bench/compare_runs.py BASE.json CHANGE.json

For every workload and end-to-end metric it takes each side's median over
its untraced runs and gives one verdict:

  regressed   the change's median is worse than the base's by more than the
              metric's bound
  improved    better by more than the bound, and the change won at least nine
              in ten of the runs paired by seed
  unresolved  a side's spread (interquartile distance over median) is wider
              than the bound, and not every change run beats every base run;
              or the medians differ by more than the bound but a side has
              fewer than 3 runs, too few to tell the change from noise
  unchanged   otherwise

Prints one row per workload, each cell the verdict and the change of the
median in percent (positive is worse). Exits 1 if any pair regressed.
"""

import json
import os
import statistics
import sys

from stats import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 3


def runs_by_seed(path, workload, metric):
    with open(path) as f:
        runs = json.load(f)["runs"]
    values = {}
    for r in runs:
        if (r["workload"] == workload and r["trace"] == 0 and
                metric in r["metrics"]):
            values.setdefault(r["seed"], []).append(
                r["metrics"][metric]["value"])
    return values


def verdict(base, change, bound, lower_is_better):
    """Returns (verdict, worse) where worse > 0 means the change is worse."""
    flat_base = [v for vs in base.values() for v in vs]
    flat_change = [v for vs in change.values() for v in vs]
    mb = statistics.median(flat_base)
    mc = statistics.median(flat_change)
    if mb == 0:
        return "unresolved", 0.0
    worse = (mc - mb) / mb if lower_is_better else (mb - mc) / mb

    def beats(c, b):
        return c < b if lower_is_better else c > b

    if spread(flat_base) > bound or spread(flat_change) > bound:
        if all(beats(c, b) for c in flat_change for b in flat_base):
            return ("improved" if -worse > bound else "unchanged"), worse
        return "unresolved", worse
    if abs(worse) > bound and min(len(flat_base), len(flat_change)) < MIN_RUNS:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = [(b, c) for seed in sorted(set(base) & set(change))
             for b, c in zip(base[seed], change[seed])]
    wins = sum(1 for b, c in pairs if beats(c, b))
    if -worse > bound and pairs and wins >= 0.9 * len(pairs):
        return "improved", worse
    return "unchanged", worse


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    base_path, change_path = sys.argv[1], sys.argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    width = max(len(m["name"]) for m in metrics) + 2
    print("%-18s" % "workload" +
          "".join("%-*s" % (max(width, 20), m["name"]) for m in metrics))
    regressed = False
    for w in bench["workloads"]:
        cells = []
        for m in metrics:
            base = runs_by_seed(base_path, w["name"], m["name"])
            change = runs_by_seed(change_path, w["name"], m["name"])
            if not base or not change:
                cells.append("missing")
                continue
            v, worse = verdict(base, change, m["bound"],
                               m["better"] == "lower")
            regressed = regressed or v == "regressed"
            cells.append("%s %+.2f%%" % (v, 100 * worse))
        print("%-18s" % w["name"] +
              "".join("%-*s" % (max(width, 20), c) for c in cells))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
