#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json and writes one results file.

    python3 ddp_bench/run_benchmark.py [--seeds 1] [--trace] [--seconds S]
        [--scale X] [--out results.json] [--append]

Run from the repository root. Each (seed, workload) runs in its own process
through run.py, untraced, plus once traced with --trace. Prints every metric
of every run as a `workload metric value unit` line, then, for more than one
seed, each end-to-end metric's median and quartile spread. --seeds takes a
list and ranges ("1,3,5-8"). The results file records the machine (nproc,
build type, open-file limit, spill filesystem) beside the runs; --append adds
runs to an existing file, for alternating a parent and a change checkout.
Exits 1 if any run failed a check.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def filesystem_of(path):
    """Type of the filesystem holding `path`, from the longest mount prefix."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def build_type():
    try:
        with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default="ddp_bench_results.json")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds else bench["run_seconds"]

    results = {"runs": []}
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            results = json.load(f)
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            for trace in (["0", "1"] if args.trace else ["0"]):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", trace,
                       "--scale", str(args.scale)]
                started = time.time()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                try:
                    run = json.loads(proc.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    run = {"correct": False, "attempted": 0, "failed": 0,
                           "metrics": {}}
                run.update(workload=workload, seed=seed, trace=int(trace),
                           exit_code=proc.returncode,
                           wall_seconds=round(time.time() - started, 3))
                results["runs"].append(run)
                if proc.returncode != 0 or not run["correct"] or run["failed"]:
                    ok = False
                    print("%s seed %d trace %s: FAILED (exit %d)" %
                          (workload, seed, trace, proc.returncode))
                for name, m in run["metrics"].items():
                    print("%s %s %.17g %s" % (workload, name, m["value"],
                                             m["unit"]))
                sys.stdout.flush()

    results["machine"] = {
        "nproc": os.cpu_count(),
        "build_type": build_type(),
        "ulimit_n": resource.getrlimit(resource.RLIMIT_NOFILE)[0],
        "spill_filesystem": filesystem_of(ROOT),
        "run_seconds": seconds,
        "scale": args.scale,
    }
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")

    seeds = sorted({r["seed"] for r in results["runs"]})
    if len(seeds) > 1:
        print("\n%-18s %-18s %14s %8s" % ("workload", "metric", "median",
                                          "spread"))
        for workload in workloads:
            runs = [r for r in results["runs"]
                    if r["workload"] == workload and r["trace"] == 0]
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs
                          if m["name"] in r["metrics"]]
                if values:
                    print("%-18s %-18s %14.6g %7.2f%%" % (
                        workload, m["name"], statistics.median(values),
                        100 * spread(values)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
