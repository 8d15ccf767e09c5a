#!/usr/bin/env python3
"""Builds ddp_bench from the repository sources and runs one workload.

    python3 ddp_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale X]

Run from the repository root. The build goes to .bench_build/ and every file
a run writes to .bench_work/, both under the root. The last line of stdout is
the run's JSON result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json when --trace is 0 and its per-layer
metrics when --trace is 1. Build output and failed checks go to stderr. Exits
0 only when the run completed and every check held.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_SECONDS = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ddp", "driver.h")):
        fail("no repository sources under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def become_subreaper():
    """Orphaned descendants (a worker outliving a crashed ddp_bench) are
    re-parented to this process, so it can reap them before exiting."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_all(session):
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(workloads)))
    wanted = bench["per_layer" if args.trace == "1" else "end_to_end"]
    build()

    work = os.path.join(WORK_DIR, "%s-s%d-p%d" % (args.workload, args.seed,
                                                  os.getpid()))
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)  # anything using a temp dir stays here
    cmd = [os.path.join(BUILD_DIR, "ddp_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", repr(args.scale), "--work-dir", work,
           "--worker-bin", os.path.join(BUILD_DIR, "ddp_worker")]
    become_subreaper()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        stdout = ""
        print("run.py: ddp_bench timed out", file=sys.stderr)
    finally:
        reap_all(proc.pid)
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("ddp_bench printed no result (exit %s)" % proc.returncode)
    # ddp_bench's metric list must match BENCHMARK.json's in both directions,
    # units included, so the two cannot drift apart.
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in wanted}
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != expected:
        fail("ddp_bench metrics differ from BENCHMARK.json: %s" % ", ".join(
            "%s (reported %s, expected %s)" % (name, reported.get(name),
                                               expected.get(name))
            for name in sorted(set(reported) | set(expected))
            if reported.get(name) != expected.get(name)))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
