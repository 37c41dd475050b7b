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
    # The quick benches write their JSON records into build-asan/, so
    # the committed full-mode BENCH_*.json files stay untouched.
    #
    # Quick-mode full-card sweep: 128-function fan-out under the
    # sanitizers, with an events/sec floor set low (ASan costs
    # roughly an order of magnitude of simulator speed).
    echo "== ASan+UBSan ext_full_card (quick) =="
    ./build-asan/bench/ext_full_card --quick --events-floor=20000 \
        --wall-limit-s=300 --json=build-asan/BENCH_full_card.json || fail=1
    # Quick-mode remote-tier bench: the tiering transparency gate
    # (tenant p99 under spill/promote churn vs idle) runs on simulated
    # time, so it holds even at ASan speed.
    echo "== ASan+UBSan ext_remote_storage (quick) =="
    ./build-asan/bench/ext_remote_storage --quick \
        --json=build-asan/BENCH_remote_tier.json || fail=1
    # Quick-mode fleet smoke: an 8-card rolling wave plus drill with
    # the makespan gate on simulated time (ASan-proof) and a floor on
    # events/sec set an order of magnitude under native speed.
    echo "== ASan+UBSan ext_fleet (quick) =="
    ./build-asan/bench/ext_fleet --quick --events-floor=20000 \
        --wall-limit-s=580 --json=build-asan/BENCH_fleet.json || fail=1
    # The quick wave's replay is pinned: a change that moves a single
    # event or trace line of the fleet path changes these.
    echo "== fleet replay gate =="
    check_fleet_replay build-asan/BENCH_fleet.json || fail=1
    # The quick full-card sweep's replay is pinned the same way: both
    # NVMe initiators (tenant driver, host adaptor) sit on its fan-out
    # path, so any change to their timing moves these counts.
    echo "== full-card replay gate =="
    check_full_card_replay build-asan/BENCH_full_card.json || fail=1
}

# Fail unless the fleet record $1 holds the pinned quick-wave replay.
check_fleet_replay() {
    local json="$1" hash=f559f7f52bc8cbcb events=42554002
    if grep -q "\"traceHash\": \"${hash}\"" "${json}" &&
        grep -q "\"events\": ${events}," "${json}"; then
        echo "fleet replay: traceHash ${hash}, ${events} events"
        return 0
    fi
    echo "check.sh: fleet replay moved: ${json} does not read traceHash" \
        "${hash} with ${events} events" >&2
    return 1
}

# Fail unless the full-card record $1 holds the pinned quick sweep:
# these event counts at its 4-, 16- and 48-tenant points, in order.
check_full_card_replay() {
    local json="$1" events="12675 49061 58308" got
    got=$(grep -o '"events": [0-9]*' "${json}" | grep -o '[0-9]*$' |
          tr '\n' ' ' | sed 's/ $//')
    if [ "${got}" = "${events}" ]; then
        echo "full-card replay: events ${events}"
        return 0
    fi
    echo "check.sh: full-card replay moved: ${json} reads events" \
        "'${got}', not '${events}'" >&2
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
