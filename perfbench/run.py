#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the harness (RelWithDebInfo, the repository's default build) into
.bench_build/; later calls only re-check the build.  The harness prints
notes and one JSON result line; this script checks that line against
BENCHMARK.json, fills in the per-layer metrics of layers the workload
does not run (as 0), and prints it as the last line of stdout.

Exit codes: 0 when every output check passed; 1 when a check failed
(the result line still prints, with "correct": false); 2 or more when
the harness could not be built or run (no result line).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# A run measures for --seconds and then checks its outputs; anything
# slower than this is a hung run.
HARNESS_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail(3, "build failed: " + " ".join(step))
    return BUILD / "perfbench"


def complete_metrics(result, bench, trace):
    """Checks the harness's metrics against BENCHMARK.json; fills layers
    this workload does not run with 0.  Returns a list of problems."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    problems = []
    for name, metric in metrics.items():
        if name not in units:
            problems.append(f"undeclared metric {name}")
        elif metric["unit"] != units[name]:
            problems.append(f"metric {name} has unit {metric['unit']}, declared {units[name]}")
    completed = {}
    for name, unit in units.items():
        if name in metrics:
            completed[name] = metrics[name]
        elif trace:
            completed[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"missing end-to-end metric {name}")
    result["metrics"] = completed
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(2, f"unknown workload {args.workload!r}; expected one of {workloads}")
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds positive")

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", str(BUILD / "traces")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail(5, f"harness exited with code {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        fail(5, "harness did not end with a result line")
    problems = complete_metrics(result, bench, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if problems or run.returncode != 0:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
