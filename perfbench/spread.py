#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/spread.py --workload fanout_read --seeds 1-10 \
        [--seconds 10] [--trace 0]

For every metric of the runs' reports (.bench_out/*.json: the final
line's metrics and the rest) it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, which BENCHMARK.json's bounds are compared with.
Exits non-zero when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seeds_of(args.seeds):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"seed {seed}: failed (exit {res.returncode})")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}"
            for name, m in result["metrics"].items()), flush=True)
        path = os.path.join(os.path.dirname(HERE), ".bench_out",
                            f"{args.workload}-seed{seed}-trace{args.trace}"
                            ".json")
        with open(path) as f:
            report = json.load(f)
        for group in ("end_to_end", "per_layer"):
            for name, m in report[group].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]

    print(f"\n{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
