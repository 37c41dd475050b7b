#!/usr/bin/env python3
"""Build the perfbench driver from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fanout_read --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and is incremental, so only the first run pays
for it. Build output goes to stderr; the driver's stdout is passed
through unchanged, and its last line is the JSON result. Reports and
span files land in .bench_out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure and build the driver; returns its path or None."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    res = subprocess.run([binary, "--out", out_dir] + sys.argv[1:])
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
