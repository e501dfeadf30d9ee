#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload served-hit --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py                 # every workload, seed 1, untraced

The first call configures and builds perfbench/ (the system's sources under
src/ plus the benchmark program) with CMake into .bench_build/; later calls
only rebuild what changed. The program prints one metric per line and, as the
last line of standard output, the JSON result. The exit code is non-zero if
the build fails, an output check fails, or the run does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
BINARY = os.path.join(BUILD_DIR, "ditto_perfbench")
WORKLOADS = ["served-hit", "replay-shift"]


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ditto_perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {' '.join(step)}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(step)} failed", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", SPAN_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in time", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        code, lines = run(args.workload, args.seed, args.seconds, args.trace)
        if not lines or not lines[-1].startswith("{"):
            return code or 1
        print("\n".join(lines))
        return code

    results = {}
    status = 0
    for workload in WORKLOADS:
        code, lines = run(workload, args.seed, args.seconds, args.trace)
        print(f"== {workload}")
        print("\n".join(line for line in lines[:-1]))
        status = status or code
        if lines and lines[-1].startswith("{"):
            results[workload] = json.loads(lines[-1])
        else:
            status = status or 1
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
