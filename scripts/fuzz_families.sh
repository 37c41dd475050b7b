#!/usr/bin/env bash
# Run the six pinned fuzz seed families and print their combined
# output to stdout.
#
# Usage: scripts/fuzz_families.sh [BUILD_DIR] [EXPECTED]
#
#   BUILD_DIR  tree holding the fuzz binary (default: build)
#   EXPECTED   also fail unless stdout matches this file
#
# Every family's per-seed output is deterministic, so this stdout is a
# replay fingerprint: tests/fuzz_families.expected pins it (ctest
# FuzzFamilies.OutputIsPinned) and scripts/check.sh runs the same
# families under ASan/UBSan. A change that moves a pinned replay on
# purpose regenerates the expected file with this script.
#
# Exits non-zero when any family fails (oracle violation or crash) or
# the output differs from EXPECTED.

set -uo pipefail

BUILD="${1:-build}"
EXPECTED="${2:-}"
FUZZ="${BUILD}/fuzz"
if [ ! -x "${FUZZ}" ]; then
    echo "fuzz_families.sh: ${FUZZ} not built" >&2
    exit 2
fi

run_families() {
    local fail=0
    # Torture mix: splits, upgrades, fault windows.
    "${FUZZ}" --seeds=1:8 --horizon-ms=30 || fail=1
    # Migration: forced chunk moves + evacuations with fault windows
    # overlapping the copy on both legs.
    "${FUZZ}" --seeds=201:204 --horizon-ms=30 --min-ssds=2 \
        --force-migration || fail=1
    # Multi-VF: up to 16 tenants riding VFs with randomized SQ counts,
    # arbitration modes and QPRIO mixes.
    "${FUZZ}" --seeds=301:304 --horizon-ms=20 --max-tenants=16 || fail=1
    # Tiering: remote storage nodes with a forced early spill, a mid-run
    # storage-node loss (recovery must be an atomic flip to the local
    # shadows — zero data loss) and a post-recovery promote, plus random
    # link-latency spikes.
    "${FUZZ}" --seeds=401:404 --horizon-ms=120 --min-ssds=2 \
        --remote-nodes=2 --force-tiering || fail=1
    # Thin provisioning: every tenant thin (allocate on first write, TRIMs
    # in the stream), a forced mid-run snapshot of tenant 0, a clone
    # verified against the snapshot's stamp lineage, and a late snapshot
    # delete — chunk CoW under live I/O.
    "${FUZZ}" --seeds=501:504 --horizon-ms=30 --force-thin || fail=1
    # Fleet: 2-4 cards in one simulation, admissions through the placement
    # scorer, a rolling wave (firmware or lossless replace) under a failure
    # budget, and a correlated drill with node losses and upgrade storms
    # mid-wave.
    "${FUZZ}" --seeds=601:604 --fleet --horizon-ms=60 || fail=1
    return "${fail}"
}

if [ -z "${EXPECTED}" ]; then
    run_families
    exit $?
fi
out="$(run_families)" || {
    echo "fuzz_families.sh: a seed family failed" >&2
    exit 1
}
diff -u "${EXPECTED}" - <<<"${out}" || {
    echo "fuzz_families.sh: output differs from ${EXPECTED}" >&2
    exit 1
}
