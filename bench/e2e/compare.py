#!/usr/bin/env python3
"""Compares two sets of bench_e2e reports: a parent (A) and a change (B).

    python3 bench/e2e/compare.py DIR_A DIR_B

Each directory holds the files written by `bench_e2e --json=PATH` (or
`run.py --json PATH`), one run per file, any number of workloads per
file. Runs are paired in file-name order within each workload. For every
workload x end-to-end metric the script prints each side's median and
quartiles, how many pairs B wins, and a verdict:

  improved   B wins at least 9/10 of the pairs (ties count for neither)
             and the medians differ by more than A's quartile spread;
  REGRESSED  B's median is worse than A's by more than the bound;
  unresolved A's own quartile spread is wider than the bound, so "within
             bound" cannot be told apart from noise, unless every B run
             beats every A run;
  within     otherwise.

The exit code is 1 when any metric regressed.

Bounds and directions come from BENCHMARK.json at the repository root.
Traced runs (--trace) also get their per-layer metrics and wall-time
rows printed side by side.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory):
    """workload -> list of run dicts, in file-name order."""
    runs = defaultdict(list)
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        sys.exit(f"compare.py: no .json reports in {directory}")
    for f in files:
        for run in json.loads(f.read_text())["runs"]:
            runs[run["workload"]].append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, bound, lower_better):
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    sign = 1 if lower_better else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    worse = sign * (medb - meda) / meda if meda else 0.0
    every_b_better = all(sign * (x - y) > 0 for x in a for y in b)
    spread = (q3a - q1a) / abs(meda) if meda else 0.0
    if wins >= 0.9 * len(pairs) and sign * (meda - medb) > q3a - q1a:
        return wins, len(pairs), "improved"
    if worse > bound:
        return wins, len(pairs), "REGRESSED"
    if spread > bound and not every_b_better:
        return wins, len(pairs), "unresolved"
    return wins, len(pairs), "within"


def fmt(x):
    return f"{x:.6g}"


def fmt_quartiles(q):
    q1, med, q3 = (fmt(x) for x in q)
    return f"{med:>11} [{q1:>11}, {q3:>11}]"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    side_a, side_b = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for workload in sorted(set(side_a) & set(side_b)):
        ra, rb = side_a[workload], side_b[workload]
        print(f"== {workload}: {len(ra)} run(s) A, {len(rb)} run(s) B ==")
        print(f"  {'metric':<22} {'A median [q1, q3]':>38}  "
              f"{'B median [q1, q3]':>38}  {'B wins':>7}  verdict (bound)")
        for name, m in metrics.items():
            a = [r["e2e"][name]["value"] for r in ra if name in r["e2e"]]
            b = [r["e2e"][name]["value"] for r in rb if name in r["e2e"]]
            if not a or not b:
                continue
            wins, pairs, v = verdict(a, b, m["bound"], m["better"] == "lower")
            regressed = regressed or v == "REGRESSED"
            print(f"  {name:<22} {fmt_quartiles(quartiles(a))}  "
                  f"{fmt_quartiles(quartiles(b))}  {wins:>3}/{pairs:<3}  "
                  f"{v} ({m['bound']})")
        ta = [r for r in ra if "layers" in r]
        tb = [r for r in rb if "layers" in r]
        if ta and tb:
            print(f"\n  per-layer medians ({len(ta)} traced A, {len(tb)} traced B)")
            for name in ta[0]["layers"]:
                a = statistics.median(r["layers"][name]["value"] for r in ta)
                b = statistics.median(r["layers"][name]["value"] for r in tb
                                      if name in r["layers"])
                unit = ta[0]["layers"][name]["unit"]
                print(f"  {name:<38} {fmt(a):>14} {fmt(b):>14}  {unit}")
            print("\n  wall rows, us/op (median)")
            rows = defaultdict(lambda: ([], []))
            for side, runs in ((0, ta), (1, tb)):
                for r in runs:
                    for row in r["layer_rows"]:
                        key = (row["layer"], row["type"])
                        rows[key][side].append(row["us_per_op"])
            ordered = sorted(rows.items(),
                             key=lambda kv: -statistics.median(kv[1][0] or [0]))
            for (layer, typ), (a, b) in ordered:
                ma = statistics.median(a) if a else 0.0
                mb = statistics.median(b) if b else 0.0
                print(f"  {layer:<20} {typ:<18} {fmt(ma):>12} {fmt(mb):>12}")
        print()
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
