#!/usr/bin/env bash
# Allocation census: where the simulator's heap traffic per oracle I/O
# comes from.
#
# Usage: scripts/alloc_census.sh BUILD_DIR
#
# Builds the LD_PRELOAD counter (tools/alloc_census/counter.cc) into
# BUILD_DIR, runs `BUILD_DIR/fuzz --seeds=1:8 --horizon-ms=300` once
# plain and once under the counter, and fails unless both print the
# same stdout. Then it prints allocations and bytes per oracle I/O
# (oracle I/Os: the sum of the seeds' `ops=`), in total and per source
# file: each backtrace is resolved with `addr2line -i` and charged to
# the first frame of its inline chains whose file is under src/.
# Allocations with no src/ frame (the C++ runtime, the fuzz driver
# before the first seed) are listed as `(other)`.
#
# Needs a non-sanitizer build with debug info (the default
# RelWithDebInfo). Takes about a minute on 4 vCPU.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
build="$(cd "$1" && pwd)"
fuzz="${build}/fuzz"
[ -x "${fuzz}" ] || { echo "$0: ${fuzz} not found" >&2; exit 1; }

work="${build}/alloc_census"
mkdir -p "${work}"
"${CXX:-c++}" -std=c++20 -O2 -shared -fPIC \
    -o "${work}/counter.so" tools/alloc_census/counter.cc

args=(--seeds=1:8 --horizon-ms=300)
"${fuzz}" "${args[@]}" > "${work}/plain.out"
ALLOC_CENSUS_OUT="${work}/buckets.txt" LD_PRELOAD="${work}/counter.so" \
    "${fuzz}" "${args[@]}" > "${work}/census.out"
if ! cmp -s "${work}/plain.out" "${work}/census.out"; then
    echo "$0: fuzz stdout changed under the counter" >&2
    diff "${work}/plain.out" "${work}/census.out" >&2 || true
    exit 1
fi

# The sources the build compiled: addr2line reports their paths.
srcdir="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' \
          "${build}/CMakeCache.txt")/src/"
python3 - "${fuzz}" "${srcdir}" "${work}/census.out" \
    "${work}/buckets.txt" <<'EOF'
import os
import re
import subprocess
import sys
from collections import defaultdict

fuzz, src, stdout_path, buckets_path = sys.argv[1:]
src = os.path.normpath(src) + "/"
ios = sum(int(m) for m in
          re.findall(r"\bops=(\d+)", open(stdout_path).read()))
if ios == 0:
    sys.exit("alloc_census: no oracle I/O in the fuzz output")

buckets = []
for line in open(buckets_path):
    parts = line.split()
    if parts[2:] == ["dropped"]:
        sys.exit(f"alloc_census: {parts[0]} allocations overflowed "
                 "the bucket table")
    buckets.append((int(parts[0]), int(parts[1]), parts[2:]))

# Resolve every distinct frame once. A return address points past its
# call, so look up the byte before it.
addrs = sorted({f for _, _, fr in buckets for f in fr if f != "-"})
queries = [hex(int(a, 16) - 1) for a in addrs]
out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", fuzz],
                     input="\n".join(queries), capture_output=True,
                     text=True, check=True).stdout.splitlines()
files = {}  # frame -> file of each inline level, innermost first
i = 0
for a in addrs:
    assert out[i].startswith("0x"), out[i]
    i += 1
    chain = []
    while i < len(out) and not out[i].startswith("0x"):
        chain.append(os.path.normpath(out[i + 1].rsplit(":", 1)[0]))
        i += 2
    files[a] = chain


def owner(frames):
    for f in frames:
        for path in files.get(f, []):
            if path.startswith(src):
                return path[len(src):]
    return "(other)"


allocs = defaultdict(int)
nbytes = defaultdict(int)
for n, b, fr in buckets:
    allocs[owner(fr)] += n
    nbytes[owner(fr)] += b
total_n = sum(allocs.values())
total_b = sum(nbytes.values())
print(f"oracle I/Os: {ios}")
print(f"total: {total_n / ios:.2f} allocations, "
      f"{total_b / ios:,.0f} B per oracle I/O")
print(f"{'file':<44} {'allocs/io':>10} {'B/io':>9}")
rest = 0
for name in sorted(allocs, key=lambda k: (-allocs[k], k)):
    if allocs[name] / ios < 0.005:
        rest += 1
        continue
    print(f"{name:<44} {allocs[name] / ios:>10.2f} "
          f"{nbytes[name] / ios:>9,.0f}")
if rest:
    print(f"({rest} more files below 0.005 allocations per oracle I/O)")
EOF
