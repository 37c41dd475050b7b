#!/usr/bin/env bash
# Pre-PR gate: bms-lint determinism pass + clang-tidy + ASan/UBSan
# test run.
#
# Usage: scripts/check.sh [--lint-only|--tidy-only|--san-only]
#
# 1. bms-lint (tools/bms-lint) over every source file in src/ and
#    tests/: project determinism rules R1-R5 (wall-clock/entropy,
#    unordered iteration, pointer ordering, bare assert, tick-epsilon
#    offsets — DESIGN.md §13). Fails on any new violation; every
#    BMS_LINT_ALLOW suppression must carry a reason.
# 2. clang-tidy over src/ with the repo .clang-tidy profile (skipped
#    with a warning when clang-tidy is not installed — the container
#    image ships gcc only). Reuses build/compile_commands.json when
#    the default build tree already exported one.
# 3. A fresh ASan+UBSan build (-DBMS_SANITIZE="address;undefined")
#    running the full ctest suite, the pinned fuzz seed families
#    (scripts/fuzz_families.sh) and the quick benches, and failing
#    unless ext_fleet --quick replays the pinned trace hash and event
#    count and ext_full_card --quick the pinned event counts.
#
# Build trees land in build-lint/, build-tidy/ and build-asan/ so they
# never disturb an existing build/.

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"
fail=0

build_lint_tool() {
    cmake -B build-lint -S . >/dev/null
    cmake --build build-lint --target bms-lint -j "${jobs}" >/dev/null
}

run_lint() {
    echo "== bms-lint (determinism rules R1-R5) =="
    build_lint_tool
    # File by file over simulation code and tests; headers are linted
    # directly (not just through including TUs).
    local files
    files=$(find src tests -name '*.cc' -o -name '*.hh' -o -name '*.h' \
            | sort)
    # shellcheck disable=SC2086  # word-splitting the file list is intended
    ./build-lint/tools/bms-lint/bms-lint ${files} || fail=1
}

run_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "check.sh: WARNING: clang-tidy not found; skipping static analysis" >&2
        return 0
    fi
    echo "== clang-tidy =="
    # The default build exports compile_commands.json
    # (CMAKE_EXPORT_COMPILE_COMMANDS is ON in the top-level
    # CMakeLists); reuse whichever tree already has one before
    # configuring a dedicated build-tidy/.
    local ccdir=""
    for d in build build-tidy; do
        if [ -f "${d}/compile_commands.json" ]; then
            ccdir="${d}"
            break
        fi
    done
    if [ -z "${ccdir}" ]; then
        cmake -B build-tidy -S . >/dev/null
        ccdir=build-tidy
    fi
    echo "check.sh: using ${ccdir}/compile_commands.json"
    # Headers are covered through the TUs that include them
    # (HeaderFilterRegex in .clang-tidy).
    local files
    files=$(find src -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p "${ccdir}" -quiet ${files} || fail=1
    else
        for f in ${files}; do
            clang-tidy -p "${ccdir}" --quiet "$f" || fail=1
        done
    fi
}

run_san() {
    echo "== ASan+UBSan ctest =="
    cmake -B build-asan -S . -DBMS_SANITIZE="address;undefined" >/dev/null
    cmake --build build-asan -j "${jobs}"
    (cd build-asan && ctest --output-on-failure -j "${jobs}") || fail=1
    # The six pinned fuzz seed families under sanitizers: the torture
    # mix, migration, multi-VF, tiering, thin/snapshot and fleet
    # schedules reach datapaths the unit tests don't, which is exactly
    # where ASan/UBSan earn their keep (their output is also pinned by
    # ctest FuzzFamilies.OutputIsPinned).
    echo "== ASan+UBSan fuzz (pinned seed families) =="
    scripts/fuzz_families.sh build-asan || fail=1
    # The quick benches write their records into build-asan/, so the
    # committed full-mode BENCH_*.json files stay untouched.
    for b in ext_full_card ext_remote_storage ext_fleet; do
        echo "== ASan+UBSan ${b} (quick) =="
        ./build-asan/bench/${b} --quick --json=build-asan/${b}.json || fail=1
    done
    # The quick replays are pinned: one moved event or trace line on the
    # fleet path, or a timing change in either NVMe initiator on the
    # full-card fan-out path (tenant driver, host adaptor), moves these.
    echo "== replay gates =="
    check_replay build-asan/ext_fleet.json traceHash f559f7f52bc8cbcb || fail=1
    check_replay build-asan/ext_fleet.json events 42554002 || fail=1
    check_replay build-asan/ext_full_card.json events "12675 49061 58308" ||
        fail=1
}

# Fail unless bench record $1 reads field $2 as $3: every occurrence,
# in record order (one per row of a row array), space-separated.
check_replay() {
    local got
    got=$(grep -o "\"$2\": \"\?[0-9a-f]*" "$1" | sed 's/.*: "\?//' | xargs)
    [ "${got}" = "$3" ] && echo "replay: $1 $2 $3" && return 0
    echo "check.sh: replay moved: $1 reads $2 '${got}', not '$3'" >&2
    return 1
}

case "${mode}" in
  --lint-only) run_lint ;;
  --tidy-only) run_tidy ;;
  --san-only)  run_san ;;
  all)         run_lint; run_tidy; run_san ;;
  *) echo "usage: scripts/check.sh [--lint-only|--tidy-only|--san-only]" >&2
     exit 2 ;;
esac

if [ "${fail}" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
    exit 1
fi
echo "check.sh: OK"
