#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

It builds the workload runner and xsolved from the checkout's sources
(Release, into .bench_build/), runs the workload in a fresh runner
process, checks every verdict, and prints a human-readable report
followed by one JSON result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list plus the tracing overhead, taken
from an untraced and a traced runner process that each get half of
--seconds. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
# Every run must end within 180 s; the build gets its own allowance.
RUN_LIMIT_S = 170
# The metric the tracing overhead is measured on: it weighs every
# request of every workload the same.
OVERHEAD_BASE = "verdict_geomean_ms"
# What the runner can run. BENCHMARK.json lists the workloads steady
# enough to gate on; paper-cold is not (see README.md) but stays runnable.
WORKLOADS = ("paper-cold", "server-cold", "server-warm")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds the runner and xsolved (a no-op when
    they are up to date). Build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release",
               # Never let the repository's build reach for the network.
               "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
           "--target", "perfbench_runner", "xsolved"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return (os.path.join(BUILD_DIR, "perfbench_runner"),
            os.path.join(BUILD_DIR, "xsa", "xsolved"))


def run_workload(runner, xsolved, workload, seed, seconds, trace, deadline):
    """One workload run in a fresh runner process; returns its result
    object."""
    cmd = [runner, workload, "--seed", str(seed), "--seconds",
           repr(seconds), "--trace", "1" if trace else "0",
           "--xsolved", xsolved, "--workdir", WORK_DIR]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (workload, timeout), 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s runner printed nothing (exit %d)"
             % (workload, proc.returncode), 1)
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        for note in result.get("problems", []):
            print("perfbench: " + note, file=sys.stderr)
        fail("%s runner exited with %d" % (workload, proc.returncode), 1)
    return result


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    os.chdir(ROOT)
    # The benchmark measures the program in this checkout; without its
    # sources there is nothing to build or measure.
    for need in ("CMakeLists.txt", "src", os.path.join("examples",
                                                        "xsolved.cpp")):
        if not os.path.exists(need):
            fail("no %s at the checkout root: the program's sources are "
                 "missing" % need)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in WORKLOADS:
        fail("unknown workload %s" % args.workload)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    runner, xsolved = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    deadline = start + RUN_LIMIT_S
    if args.trace:
        half = args.seconds / 2
        base = run_workload(runner, xsolved, args.workload, args.seed, half,
                            False, deadline)
        result = run_workload(runner, xsolved, args.workload, args.seed,
                              half, True, deadline)
        overhead = (result["metrics"][OVERHEAD_BASE]["value"]
                    - base["metrics"][OVERHEAD_BASE]["value"])
        result["metrics"]["trace.overhead_ms"] = {
            "value": overhead, "unit": "ms", "n": 2, "exact": False}
        runs = [base, result]
        wanted = spec["per_layer"]
    else:
        result = run_workload(runner, xsolved, args.workload, args.seed,
                              args.seconds, False, deadline)
        runs = [result]
        wanted = spec["end_to_end"]

    # Correctness covers every process of the run, traced or not.
    tally = {k: sum(r[k] for r in runs)
             for k in ("attempted", "errors", "refused", "wrong",
                       "cache_mismatch")}
    attempted = tally["attempted"]
    failed = (tally["errors"] + tally["refused"] + tally["wrong"]
              + tally["cache_mismatch"])
    metrics = result["metrics"]
    metrics["failed_ratio"] = {
        "value": failed / attempted if attempted else 1.0, "unit": "ratio",
        "n": attempted, "exact": True}
    metrics["server.failed"] = {
        "value": tally["errors"] + tally["refused"], "unit": "count",
        "n": attempted, "exact": True}

    # Human-readable report: every metric the run produced, with unit,
    # sample count and whether it is an exact operation count.
    print("perfbench %s seed=%d seconds=%s trace=%d nproc=%d build=%s"
          % (args.workload, args.seed, fmt(args.seconds), args.trace,
             result["nproc"], result["build"]))
    print("  attempted=%(attempted)d errors=%(errors)d refused=%(refused)d "
          "wrong=%(wrong)d cache_mismatch=%(cache_mismatch)d" % tally)
    for r in runs:
        for note in r.get("problems", []):
            print("  problem: " + note)
    for name, m in metrics.items():
        print("  %-28s %14s %-6s n=%d%s" % (name, fmt(m["value"]), m["unit"],
                                            m["n"],
                                            " exact" if m["exact"] else ""))

    out = {}
    missing = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is not None and math.isfinite(got["value"]):
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        elif args.trace:
            # A layer this workload never reaches (no solver work on
            # server-warm, no cache file on the cold workloads).
            print("  %-28s %14s %-6s n/a on this workload"
                  % (m["name"], "0", m["unit"]))
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            missing.append(m["name"])
    correct = failed == 0 and attempted > 0 and not missing
    if missing:
        print("perfbench: missing end-to-end metrics: " + ", ".join(missing),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
