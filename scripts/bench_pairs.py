#!/usr/bin/env python3
"""Compare two checkouts on the perfbench workloads in alternating pairs.

Usage (from anywhere):

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \
        [--workloads fanout_read,verified_rw,fleet_replace] \
        [--pairs 10] [--seconds 10] [--held-back 9001]

Each tree's own perfbench/run.py builds and runs its perfbench. Pair i
runs seed i on both trees; odd pairs run the parent first and even
pairs the change first, so a drift in host speed lands on both sides.
The held-back seed runs once more on both trees after the pairs.

For every end-to-end metric in CHANGE_DIR/BENCHMARK.json it prints,
as a markdown table per workload: the parent's and the change's
Q1 / median / Q3 over the pairs (statistics.quantiles, n=4), the ratio
of the medians, the pairs the change wins and ties, whether the claim
rule holds (the change better in at least 9 of every 10 pairs, and
its median better than the parent's by more than the parent's
Q3 - Q1), and both values on the held-back seed. Then it lists every
seed whose outcome fingerprint, attempted count, model_* values or
sim.events_per_io differ between the trees, and prints both trees'
Q1 / median / Q3 over the pairs of sim.events_per_io and
sim.ns_per_event, which every untraced run writes to the per_layer
section of its report. Standard library only.

Exits 1 when any run fails (non-zero exit, no result line, or
"correct": false), 2 on bad arguments.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


PER_LAYER = ("sim.events_per_io", "sim.ns_per_event")


def run(tree, workload, seed, seconds):
    """One untraced perfbench run in @p tree; returns (result,
    fingerprint, per-layer metrics) or None."""
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
        report = os.path.join(tree, ".bench_out",
                              f"{workload}-seed{seed}-trace0.json")
        with open(report) as f:
            doc = json.load(f)
        fp, layers = doc["fingerprint"], doc["per_layer"]
    except (ValueError, KeyError, OSError):
        return None
    if not result.get("correct"):
        return None
    return result, fp, layers


def quartiles(vals):
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        return q1, statistics.median(vals), q3
    return vals[0], vals[0], vals[0]


def better(a, b, lower):
    """True when @p a beats @p b."""
    return a < b if lower else a > b


def print_per_layer(got, pairs):
    """Both trees' quartiles of the PER_LAYER metrics over @p pairs."""
    print(f"\nPer-layer ({len(pairs)} pairs):\n")
    print("| metric | parent Q1 / median / Q3 | change Q1 / median / Q3 "
          "| median ratio |")
    print("|---|---|---|---|")
    for name in PER_LAYER if pairs else []:
        pq, cq = (quartiles([got[side][s][2][name]["value"] for s in pairs])
                  for side in ("parent", "change"))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print(f"| {name} | {pq[0]:.4g} / {pq[1]:.4g} / {pq[2]:.4g} "
              f"| {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g} | {ratio:.3f} |")


def main():
    ap = argparse.ArgumentParser(
        description="alternating parent/change perfbench pairs")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads",
                    default="fanout_read,verified_rw,fleet_replace")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--held-back", type=int, default=9001)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"{tree} has no perfbench/run.py")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    failed_runs = 0
    for workload in args.workloads.split(","):
        seeds = list(range(1, args.pairs + 1)) + [args.held_back]
        got = {"parent": {}, "change": {}}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                            "parent")
            for side in order:
                out = run(trees[side], workload, seed, args.seconds)
                if out is None:
                    failed_runs += 1
                    print(f"{workload} seed {seed}: {side} run failed",
                          flush=True)
                else:
                    got[side][seed] = out
            print(f"{workload} seed {seed}: done", file=sys.stderr,
                  flush=True)

        pairs = [s for s in seeds[:-1]
                 if s in got["parent"] and s in got["change"]]
        held = args.held_back
        print(f"\n### {workload}: {len(pairs)} pairs "
              f"(seeds 1-{args.pairs}, --seconds {args.seconds}), "
              f"held-back seed {held}\n")
        print("| metric | parent Q1 / median / Q3 | change Q1 / median / Q3 "
              "| median ratio | wins | ties | claim holds "
              f"| seed {held} parent → change |")
        print("|---|---|---|---|---|---|---|---|")
        for m in metrics if pairs else []:
            name, lower = m["name"], m["better"] == "lower"

            def value(side, seed):
                return got[side][seed][0]["metrics"][name]["value"]

            p = [value("parent", s) for s in pairs]
            c = [value("change", s) for s in pairs]
            wins = sum(better(cv, pv, lower) for pv, cv in zip(p, c))
            ties = sum(cv == pv for pv, cv in zip(p, c))
            pq, cq = quartiles(p), quartiles(c)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
            holds = (wins >= math.ceil(0.9 * len(pairs)) and
                     gap > pq[2] - pq[0])
            if held in got["parent"] and held in got["change"]:
                hp, hc = value("parent", held), value("change", held)
                mark = " (better)" if better(hc, hp, lower) else ""
                held_txt = f"{hp:.4g} → {hc:.4g}{mark}"
            else:
                held_txt = "failed"
            print(f"| {name} ({m['unit']}) "
                  f"| {pq[0]:.4g} / {pq[1]:.4g} / {pq[2]:.4g} "
                  f"| {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g} "
                  f"| {ratio:.3f} | {wins}/{len(pairs)} "
                  f"| {ties}/{len(pairs)} | {'yes' if holds else 'no'} "
                  f"| {held_txt} |")

        print()
        same = True
        for seed in seeds:
            if seed not in got["parent"] or seed not in got["change"]:
                continue
            (pr, pfp, pl), (cr, cfp, cl) = (got["parent"][seed],
                                            got["change"][seed])
            diffs = []
            if pfp != cfp:
                diffs.append(f"fingerprint {pfp} → {cfp}")
            for key in ("attempted", "failed"):
                if pr[key] != cr[key]:
                    diffs.append(f"{key} {pr[key]} → {cr[key]}")
            for name, pm in pr["metrics"].items():
                cm = cr["metrics"].get(name)
                if name.startswith("model_") and (
                        cm is None or cm["value"] != pm["value"]):
                    cv = cm["value"] if cm else "missing"
                    diffs.append(f"{name} {pm['value']} → {cv}")
            pe, ce = (layers["sim.events_per_io"]["value"]
                      for layers in (pl, cl))
            if pe != ce:
                diffs.append(f"sim.events_per_io {pe} → {ce}")
            if diffs:
                same = False
                print(f"- seed {seed} differs: " + "; ".join(diffs))
        if same:
            print("Every seed run on both trees has the same fingerprint, "
                  "attempted and failed counts, model_* values and "
                  "sim.events_per_io.")
        print_per_layer(got, pairs)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
