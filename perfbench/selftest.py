#!/usr/bin/env python3
"""Seed and determinism self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds 2] [--seeds 1,2]
                                  [--workloads fanout_read,...]

For every workload it runs the first seed untraced and traced, and the
second seed untraced. Each run must exit 0 and end with exactly
BENCHMARK.json's end_to_end (untraced) or per_layer (traced) metrics,
with their units. A traced run checks tracing itself: it times the
phase untraced and then traced on two builds of one world, and fails
unless both give the same simulated outcomes (every model_* value and
simulated per-layer metric, the I/O, verb and failure counts, the
counter snapshot). Across runs, this script requires the two runs of
the first seed (separate processes) to report the same outcome
fingerprint, and the second seed to change it.
Exits non-zero on a mismatch or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fanout_read", "verified_rw", "fleet_replace"]


def run(workload, seed, seconds, trace):
    """Runs one workload; returns its JSON report or None on failure."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    tag = f"{workload} seed {seed} trace {trace}"
    if res.returncode != 0:
        print(f"{tag}: exit {res.returncode}")
        for line in res.stdout.splitlines():
            if line.startswith("VIOLATION"):
                print(f"  {line}")
        return None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    if {m["name"]: m["unit"] for m in listed} != \
            {k: v["unit"] for k, v in metrics.items()}:
        print(f"{tag}: final line does not match BENCHMARK.json")
        return None
    path = os.path.join(ROOT, ".bench_out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))

    ok = True
    for w in args.workloads.split(","):
        plain = run(w, seed_a, args.seconds, 0)
        traced = run(w, seed_a, args.seconds, 1)
        other = run(w, seed_b, args.seconds, 0)
        if plain is None or traced is None or other is None:
            return 1
        outs = plain["outcomes"]
        print(f"{w}: traced run found tracing changed none of "
              f"{len(traced['outcomes'])} outcomes")
        if plain["fingerprint"] != traced["fingerprint"]:
            ok = False
            diff = [k for k in outs if outs[k] != traced["outcomes"].get(k)]
            print(f"{w}: seed {seed_a} differs between processes in {diff}")
        else:
            print(f"{w}: seed {seed_a} repeats across processes "
                  f"({plain['fingerprint']})")
        if plain["fingerprint"] == other["fingerprint"]:
            ok = False
            print(f"{w}: seed {seed_b} did not change the outcome")
        else:
            changed = [k for k in outs if outs[k] != other["outcomes"].get(k)]
            print(f"{w}: seed {seed_b} changed {len(changed)} of "
                  f"{len(outs)} outcomes")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
