#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build/ (about a minute on 4 cores);
later calls only re-check the build. Build output goes to stderr, the
benchmark's report to stdout, and the last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when the build succeeded and every correctness gate passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build")
BINARY = BUILD / "bench_e2e"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                   "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.exists()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--json", help="also write the full report to this file")
    args = p.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace")
    if args.json:
        cmd.append(f"--json={args.json}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or set(result) != {
                "correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        print(f"run.py: no result line ({e})", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
