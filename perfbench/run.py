#!/usr/bin/env python3
"""Runs the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig3_1k|views_10k|serve_churn \
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/ (which compiles the
library from src/ in Release mode) under .bench_build/; later runs
rebuild only what changed. --seed defaults to 1 and --seconds to
BENCHMARK.json's run_seconds, the length the bounds were measured at.
Build output goes to stderr. The benchmark's
own lines, starting with '#', go to stdout, and the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list; anything else is an error.

The exit code is 0 only when the run completed and every correctness
check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
WORKLOADS = ("fig3_1k", "views_10k", "serve_churn")
DEFAULT_SEED = 1
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                  "--target", "mvbench", "mvbench_traced"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR,
                          "mvbench_traced" if args.trace else "mvbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        fail("benchmark exited with %d and printed no result" % run.returncode)

    expected = declared_metrics(spec, args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics or units differ from BENCHMARK.json: printed %s, "
             "declared %s" % (sorted(got.items()), sorted(expected.items())))
    print(lines[-1])
    sys.exit(0 if run.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
