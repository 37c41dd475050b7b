/**
 * @file
 * Standalone fuzz driver.
 *
 *   fuzz [--seed=N | --seeds=A:B] [--horizon-ms=N] [--max-tenants=N]
 *        [--max-ssds=N] [--min-ssds=N] [--no-faults] [--no-control]
 *        [--no-upgrade] [--no-migration] [--force-migration]
 *        [--remote-nodes=N] [--force-tiering] [--thin] [--force-thin]
 *        [--fleet] [--cards=N] [--no-wave] [--no-drill]
 *        [--paranoid] [--log=LEVEL]
 *
 * --fleet switches to the fleet topology (seed family 601+): N cards
 * in one simulation, randomized admissions, a rolling wave and a
 * correlated fault drill, all drawn from a forked stream on a code
 * path that never constructs the single-card Fuzzer — the legacy
 * pinned families replay byte-identically.
 *
 * BMS_FUZZ_SEED=N is equivalent to --seed=N (repro from CI logs).
 * Exits nonzero on the first failing seed, after printing the seed
 * and the op log of the interleaving that broke. A malformed number,
 * an empty --seeds range (B < A) or an unknown flag exits 2 before
 * running anything.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fuzz/fleet_fuzzer.hh"
#include "fuzz/fuzzer.hh"
#include "harness/runner.hh"

using namespace bms;

namespace {

/**
 * Parse all of @p text as an unsigned number (decimal, 0x-hex or
 * 0-octal, as strtoull base 0). @return false if it is empty, signed,
 * out of range or has trailing characters.
 */
bool
parseNumber(const char *text, std::uint64_t &out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 0);
    return errno == 0 && *end == '\0';
}

/**
 * Match `FLAG<number>` in @p arg. @return false if @p arg is another
 * flag; exits 2 if the value is not a number.
 */
bool
parseU64(const char *arg, const char *flag, std::uint64_t &out)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return false;
    if (!parseNumber(arg + n, out)) {
        std::fprintf(stderr, "fuzz: %s wants a number, got '%s'\n", flag,
                     arg + n);
        std::exit(2);
    }
    return true;
}

void
printReport(const fuzz::FuzzReport &r)
{
    std::printf("seed=%llu ok: tenants=%d ssds=%d ops=%llu "
                "verified-blocks=%llu errors=%llu ctrl=%llu upgrades=%u "
                "rejected=%u fault-windows=%d media-errors=%llu "
                "spikes=%llu migrations=%u/%u/%u/%u evac=%u "
                "migrated-mb=%.1f max-gap=%.1fms\n",
                static_cast<unsigned long long>(r.seed), r.tenants, r.ssds,
                static_cast<unsigned long long>(r.totalOps),
                static_cast<unsigned long long>(r.verifiedBlocks),
                static_cast<unsigned long long>(r.totalErrors),
                static_cast<unsigned long long>(r.controlOps), r.upgrades,
                r.upgradeRejections, r.faultWindows,
                static_cast<unsigned long long>(r.injectedMediaErrors),
                static_cast<unsigned long long>(r.injectedLatencySpikes),
                r.migrationsStarted, r.migrationsCompleted,
                r.migrationsAborted, r.migrationsRejected, r.evacuations,
                static_cast<double>(r.migratedBytes) / 1e6,
                sim::toMs(r.maxCompletionGap));
    if (r.remoteNodes > 0) {
        std::printf("  remote: nodes=%d spills=%u promotes=%u "
                    "tier-failures=%u node-losses=%u recovered=%u "
                    "respilled=%u timeouts=%llu retries=%llu\n",
                    r.remoteNodes, r.spills, r.promotes, r.tierFailures,
                    r.nodeLosses, r.chunksRecovered, r.chunksRespilled,
                    static_cast<unsigned long long>(r.remoteTimeouts),
                    static_cast<unsigned long long>(r.remoteRetries));
    }
    if (r.trims + r.thinAllocs + r.dsmCommands + r.zeroFillReads +
            r.cowCopies + r.snapshots >
        0) {
        std::printf("  thin: trims=%llu allocs=%llu trimmed-chunks=%llu "
                    "dsm=%llu zero-reads=%llu cow=%llu snapshots=%u "
                    "clones=%u snap-deletes=%u\n",
                    static_cast<unsigned long long>(r.trims),
                    static_cast<unsigned long long>(r.thinAllocs),
                    static_cast<unsigned long long>(r.trimmedChunks),
                    static_cast<unsigned long long>(r.dsmCommands),
                    static_cast<unsigned long long>(r.zeroFillReads),
                    static_cast<unsigned long long>(r.cowCopies),
                    r.snapshots, r.clones, r.snapshotDeletes);
    }
}

void
printFleetReport(const fuzz::FleetFuzzReport &r)
{
    std::printf("seed=%llu ok (fleet): cards=%d placed=%d refused=%d "
                "active=%d ops=%llu verified-blocks=%llu errors=%llu "
                "wave=%u/%u pauses=%u gate-trips=%u evac-chunks=%llu "
                "makespan=%.1fms drill-windows=%u node-losses=%u "
                "storm-rejections=%u max-gap=%.1fms trace=%016llx\n",
                static_cast<unsigned long long>(r.seed), r.cards,
                r.placed, r.refused, r.active,
                static_cast<unsigned long long>(r.totalOps),
                static_cast<unsigned long long>(r.verifiedBlocks),
                static_cast<unsigned long long>(r.totalErrors),
                r.waveOpsOk, r.waveOpsFailed, r.wavePauses,
                r.waveGateTrips,
                static_cast<unsigned long long>(r.waveEvacuatedChunks),
                sim::toMs(r.waveMakespan), r.faultWindows, r.nodeLosses,
                r.stormRejections, sim::toMs(r.maxCompletionGap),
                static_cast<unsigned long long>(r.traceHash));
}

} // namespace

int
main(int argc, char **argv)
{
    harness::applyCommonFlags(argc, argv);

    fuzz::FuzzConfig cfg;
    fuzz::FleetFuzzConfig fleet_cfg;
    bool fleet = false;
    std::uint64_t first = 1, last = 1;
    bool seeded = false;
    if (const char *env = std::getenv("BMS_FUZZ_SEED")) {
        if (!parseNumber(env, first)) {
            std::fprintf(stderr,
                         "fuzz: BMS_FUZZ_SEED wants a number, got '%s'\n",
                         env);
            return 2;
        }
        last = first;
        seeded = true;
    }
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        std::uint64_t v = 0;
        if (parseU64(a, "--seed=", v)) {
            first = last = v;
            seeded = true;
        } else if (std::strncmp(a, "--seeds=", 8) == 0) {
            std::string range = a + 8;
            std::size_t colon = range.find(':');
            if (colon == std::string::npos ||
                !parseNumber(range.substr(0, colon).c_str(), first) ||
                !parseNumber(range.c_str() + colon + 1, last)) {
                std::fprintf(stderr, "fuzz: --seeds wants A:B, got '%s'\n",
                             range.c_str());
                return 2;
            }
            if (last < first) {
                std::fprintf(stderr,
                             "fuzz: --seeds=%s is empty (B < A)\n",
                             range.c_str());
                return 2;
            }
            seeded = true;
        } else if (parseU64(a, "--horizon-ms=", v)) {
            cfg.horizon = sim::milliseconds(v);
        } else if (parseU64(a, "--max-tenants=", v)) {
            cfg.maxTenants = static_cast<int>(v);
        } else if (parseU64(a, "--max-ssds=", v)) {
            cfg.maxSsds = static_cast<int>(v);
        } else if (parseU64(a, "--min-ssds=", v)) {
            cfg.minSsds = static_cast<int>(v);
        } else if (std::strcmp(a, "--no-faults") == 0) {
            cfg.enableFaults = false;
        } else if (std::strcmp(a, "--no-control") == 0) {
            cfg.enableControlOps = false;
        } else if (std::strcmp(a, "--no-upgrade") == 0) {
            cfg.enableHotUpgrade = false;
        } else if (std::strcmp(a, "--no-migration") == 0) {
            cfg.enableMigration = false;
        } else if (std::strcmp(a, "--force-migration") == 0) {
            cfg.forceMigration = true;
        } else if (parseU64(a, "--remote-nodes=", v)) {
            cfg.maxRemoteNodes = static_cast<int>(v);
        } else if (std::strcmp(a, "--force-tiering") == 0) {
            cfg.forceTiering = true;
        } else if (std::strcmp(a, "--thin") == 0) {
            cfg.enableThin = true;
        } else if (std::strcmp(a, "--force-thin") == 0) {
            cfg.forceThin = true;
        } else if (std::strcmp(a, "--fleet") == 0) {
            fleet = true;
        } else if (parseU64(a, "--cards=", v)) {
            fleet_cfg.cards = static_cast<int>(v);
        } else if (std::strcmp(a, "--no-wave") == 0) {
            fleet_cfg.enableWave = false;
        } else if (std::strcmp(a, "--no-drill") == 0) {
            fleet_cfg.enableDrill = false;
        } else if (std::strncmp(a, "--paranoid", 10) == 0 ||
                   std::strncmp(a, "--log=", 6) == 0) {
            // handled by applyCommonFlags
        } else {
            std::fprintf(stderr, "fuzz: unknown flag %s\n", a);
            return 2;
        }
    }
    if (!seeded)
        std::fprintf(stderr,
                     "fuzz: no --seed/--seeds given, running seed 1\n");

    for (std::uint64_t seed = first; seed <= last; ++seed) {
        cfg.seed = seed;
        // Failures panic (abort) inside run(), printing the seed and
        // the op log — exactly what a sweep script wants to capture.
        if (fleet) {
            fleet_cfg.seed = seed;
            fleet_cfg.horizon = cfg.horizon;
            fuzz::FleetFuzzer fuzzer(fleet_cfg);
            printFleetReport(fuzzer.run());
        } else {
            fuzz::Fuzzer fuzzer(cfg);
            printReport(fuzzer.run());
        }
        std::fflush(stdout);
    }
    return 0;
}
