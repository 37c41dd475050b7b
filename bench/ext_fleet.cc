/**
 * @file
 * Extension bench: fleet-scale rolling operations.
 *
 * Builds one deterministic simulation holding an entire fleet of
 * BM-Store cards (32 x 2 SSDs in full mode), admits on the order of a
 * thousand tenant requests through the FleetManager's df-driven
 * placement, runs verified I/O on a subset of tenants, then drives a
 * fleet-wide firmware-upgrade wave with a correlated fault drill
 * (SSD error windows, storage-node losses, an upgrade storm) landing
 * mid-wave. Every active tenant is verified block-for-block by a
 * write-stamp oracle; the final sweep re-reads everything.
 *
 * Gates (CI-enforceable):
 *
 *   --placement-floor=F   placed / requested admissions (default 0.9)
 *   --makespan-limit-s=S  wave makespan in *simulated* seconds
 *                         (default 60)
 *   --events-floor=N      simulator events/sec over the whole run
 *                         (default 200000; pass a lower floor for
 *                         sanitizer builds)
 *   --wall-limit-s=S      whole bench wall-time limit (default 600)
 *
 * `--quick` shrinks the fleet (8 cards, ~160 admissions) for the
 * pre-PR smoke gate; `--json=PATH` overrides where the
 * machine-readable file lands (default BENCH_fleet.json). The JSON
 * carries the raw fleet measurements `tco_analysis --fleet-json=PATH`
 * feeds into the paper's §VI-C model at fleet scale.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "harness/runner.hh"
#include "sim/random.hh"

using namespace bms;

namespace {

struct ActiveTenant
{
    int card = -1;
    std::uint8_t fn = 0;
    fuzz::OracleDevice *oracle = nullptr;
    fuzz::TenantWorkload *workload = nullptr;
};

double
wallSecondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct Gate
{
    double value = 0.0;
    double bound = 0.0;
    bool floorGate = true; ///< pass when value >= bound (else <=)
    bool pass() const
    {
        return floorGate ? value >= bound : value <= bound;
    }
};

void
writeJson(const std::string &path, const char *mode,
          const fleet::FleetManager &fm, int requested, int placed,
          int active, std::uint64_t total_ops,
          std::uint64_t verified_blocks, std::uint64_t events,
          double events_per_sec, double wall_sec, const Gate &placement,
          const Gate &makespan, const Gate &eps, const Gate &wall,
          bool pass)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "ext_fleet: cannot write %s\n", path.c_str());
        return;
    }
    const fleet::WaveReport &w = fm.waveReport();
    const fleet::FleetConfig &cfg = fm.config();
    std::fprintf(f, "{\n  \"bench\": \"ext_fleet\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", mode);
    std::fprintf(f, "  \"cards\": %d,\n", fm.cards());
    std::fprintf(f, "  \"ssdsPerCard\": %d,\n", cfg.ssdsPerCard);
    std::fprintf(f, "  \"tenantsRequested\": %d,\n", requested);
    std::fprintf(f, "  \"tenantsPlaced\": %d,\n", placed);
    std::fprintf(f, "  \"tenantsActive\": %d,\n", active);
    std::fprintf(f, "  \"totalOps\": %llu,\n",
                 static_cast<unsigned long long>(total_ops));
    std::fprintf(f, "  \"verifiedBlocks\": %llu,\n",
                 static_cast<unsigned long long>(verified_blocks));
    std::fprintf(f, "  \"wave\": {\"opsOk\": %u, \"opsFailed\": %u, "
                    "\"pauses\": %u, \"gateTrips\": %u, "
                    "\"makespanMs\": %.1f, \"ioPauseMsMax\": %.1f, "
                    "\"evacuatedChunks\": %llu},\n",
                 w.opsOk, w.opsFailed, w.pauses, w.gateTrips,
                 sim::toMs(w.makespan), w.ioPauseMsMax,
                 static_cast<unsigned long long>(w.evacuatedChunks));
    std::fprintf(f, "  \"drill\": {\"faultWindows\": %u, "
                    "\"nodeLosses\": %u, \"stormRejections\": %u},\n",
                 fm.faultWindowsOpened(), fm.nodeLossesRecovered(),
                 fm.stormRejections());
    std::fprintf(f, "  \"events\": %llu,\n",
                 static_cast<unsigned long long>(events));
    std::fprintf(f, "  \"eventsPerSec\": %.1f,\n", events_per_sec);
    std::fprintf(f, "  \"wallSeconds\": %.1f,\n", wall_sec);
    std::fprintf(f, "  \"traceHash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(fm.traceHash()));
    std::fprintf(f, "  \"gates\": {\n");
    std::fprintf(f,
                 "    \"placementQuality\": {\"value\": %.3f, "
                 "\"floor\": %.3f, \"pass\": %s},\n",
                 placement.value, placement.bound,
                 placement.pass() ? "true" : "false");
    std::fprintf(f,
                 "    \"waveMakespanS\": {\"value\": %.2f, "
                 "\"limit\": %.2f, \"pass\": %s},\n",
                 makespan.value, makespan.bound,
                 makespan.pass() ? "true" : "false");
    std::fprintf(f,
                 "    \"eventsPerSec\": {\"value\": %.1f, "
                 "\"floor\": %.1f, \"pass\": %s},\n",
                 eps.value, eps.bound, eps.pass() ? "true" : "false");
    std::fprintf(f,
                 "    \"wallSeconds\": {\"value\": %.1f, "
                 "\"limit\": %.1f, \"pass\": %s}\n",
                 wall.value, wall.bound, wall.pass() ? "true" : "false");
    std::fprintf(f, "  },\n  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    bms::harness::applyCommonFlags(argc, argv);

    bool quick = false;
    double placementFloor = 0.9;
    double makespanLimitS = 60.0;
    double eventsFloor = 200e3;
    double wallLimit = 600.0;
    std::string jsonPath = "BENCH_fleet.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strncmp(argv[i], "--placement-floor=", 18) == 0)
            placementFloor = std::atof(argv[i] + 18);
        else if (std::strncmp(argv[i], "--makespan-limit-s=", 19) == 0)
            makespanLimitS = std::atof(argv[i] + 19);
        else if (std::strncmp(argv[i], "--events-floor=", 15) == 0)
            eventsFloor = std::atof(argv[i] + 15);
        else if (std::strncmp(argv[i], "--wall-limit-s=", 15) == 0)
            wallLimit = std::atof(argv[i] + 15);
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonPath = argv[i] + 7;
    }

    auto wall0 = std::chrono::steady_clock::now();

    // Fleet shape: full mode is the acceptance scale (32 cards, >1000
    // admissions); quick is the smoke-gate miniature of the same
    // schedule. The per-card QoS budget is raised so the budget, not
    // chunk capacity, is never the binding constraint at this scale.
    fleet::FleetConfig fc;
    fc.seed = 1;
    fc.cards = quick ? 8 : 32;
    fc.ssdsPerCard = 2;
    fc.cardIopsBudget = 3'200'000.0;
    fc.remoteNodesPerCard = 1; // the drill loses one node per hit card
    fleet::FleetManager fm(fc);
    sim::Simulator &sim = fm.sim();

    int requested = quick ? 160 : 1200;
    int activeTarget = quick ? 8 : 16;

    // Phase 1 — admissions. Mostly Bronze (the fleet's bread and
    // butter), half thin, a sprinkle of anti-affinity groups.
    sim::Rng rng(fc.seed ^ 0xbe'9c'f1'ee'7ULL);
    int placed = 0;
    for (int t = 0; t < requested; ++t) {
        fleet::TenantRequest req;
        req.bytes = sim::mib(4);
        double cls = rng.uniform01();
        req.qos = cls < 0.7   ? fleet::QosClass::Bronze
                  : cls < 0.9 ? fleet::QosClass::Silver
                              : fleet::QosClass::Gold;
        req.thin = rng.chance(0.5);
        req.antiAffinityGroup =
            rng.chance(0.1) ? static_cast<int>(rng.uniformInt(0, 3)) : -1;
        if (fm.admit(req).ok)
            ++placed;
    }
    double placementQuality =
        static_cast<double>(placed) / static_cast<double>(requested);

    // Phase 2 — verified workloads on a subset of placements, spread
    // across the fleet (one per card round-robin over the placed set).
    fuzz::OpLog log(256);
    std::vector<ActiveTenant> active;
    {
        int per_card = (activeTarget + fm.cards() - 1) / fm.cards();
        std::vector<int> taken(static_cast<std::size_t>(fm.cards()), 0);
        for (int c = 0; c < fm.cards() &&
                        static_cast<int>(active.size()) < activeTarget;
             ++c) {
            for (int k = 0; k < per_card &&
                            static_cast<int>(active.size()) < activeTarget;
                 ++k) {
                if (fm.tenantsOn(c) <= k)
                    break;
                // Functions are assigned 0..n-1 in admission order.
                auto fn = static_cast<std::uint8_t>(k);
                host::NvmeDriver &drv = fm.tenantDriver(c, fn);
                fuzz::OracleDevice::Config ocfg;
                ocfg.uid =
                    static_cast<std::uint32_t>(active.size() + 1);
                ocfg.seed = fc.seed;
                ocfg.regionBytes = sim::mib(1);
                auto *oracle = sim.make<fuzz::OracleDevice>(
                    sim, "bench.oracle" + std::to_string(active.size()),
                    drv, fm.card(c).host().memory(), log, ocfg);
                fuzz::TenantSpec spec;
                spec.iodepth = 4;
                spec.readRatio = 0.5;
                spec.flushProb = 0.005;
                spec.maxIoBlocks = 8;
                auto *wl = sim.make<fuzz::TenantWorkload>(
                    sim, "bench.tenant" + std::to_string(active.size()),
                    *oracle, rng.fork(), spec);
                active.push_back(ActiveTenant{c, fn, oracle, wl});
                wl->start();
            }
        }
    }

    fm.setFaultWindowHook([&active](int card, bool open) {
        if (!open)
            return;
        for (ActiveTenant &a : active) {
            if (a.card == card)
                a.oracle->setFaultsActive(true);
        }
    });
    fm.setAvailabilityProbe([&active] {
        sim::Tick worst = 0;
        for (ActiveTenant &a : active)
            worst = std::max(worst, a.workload->maxCompletionGap());
        return worst;
    });

    // Phase 3 — the rolling wave, with the correlated drill landing
    // one simulated second into it.
    std::uint64_t events0 = sim.queue().executedCount();
    fleet::WaveConfig wc;
    wc.op = fleet::WaveOp::FirmwareUpgrade;
    wc.failureBudget = 4;
    wc.availabilityBound = sim::seconds(5);
    fm.startWave(wc);

    fleet::FaultDrill drill;
    drill.firstCard = 0;
    drill.cardStride = 4;
    drill.at = sim.now() + sim::seconds(1);
    drill.duration = sim::milliseconds(50);
    drill.readErrorRate = 0.1;
    drill.writeErrorRate = 0.1;
    drill.latencySpikeRate = 0.05;
    drill.loseNode = true;
    drill.upgradeStorm = true;
    fm.scheduleDrill(drill);

    int resumes = 0;
    while (true) {
        while (fm.waveState() == fleet::WaveState::Running)
            sim.runUntil(sim.now() + sim::milliseconds(5));
        if (fm.waveState() == fleet::WaveState::Paused &&
            resumes < 4 * fm.cards()) {
            ++resumes;
            fm.resumeWave(2);
            continue;
        }
        break;
    }
    if (fm.waveState() != fleet::WaveState::Done) {
        std::fprintf(stderr, "ext_fleet: wave did not complete\n");
        return 1;
    }

    // Phase 4 — drain and verify everything.
    int stopping = static_cast<int>(active.size());
    for (ActiveTenant &a : active)
        a.workload->stop([&stopping] { --stopping; });
    while (stopping > 0 || !fm.drillIdle())
        sim.runUntil(sim.now() + sim::milliseconds(1));
    int sweepPending = 0;
    std::uint64_t sweepErrors = 0;
    for (ActiveTenant &a : active) {
        std::uint32_t step = a.oracle->maxIoBlocks();
        for (std::uint64_t b = 0; b < a.oracle->blocks(); b += step) {
            auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                step, a.oracle->blocks() - b));
            ++sweepPending;
            a.oracle->read(b, n, [&sweepPending, &sweepErrors](bool ok) {
                --sweepPending;
                if (!ok)
                    ++sweepErrors;
            });
        }
    }
    while (sweepPending > 0)
        sim.runUntil(sim.now() + sim::milliseconds(1));
    if (sweepErrors != 0) {
        std::fprintf(stderr, "ext_fleet: %llu final-sweep reads failed\n",
                     static_cast<unsigned long long>(sweepErrors));
        return 1;
    }

    double wallSec = wallSecondsSince(wall0);
    std::uint64_t events = sim.queue().executedCount() - events0;
    double eventsPerSec =
        wallSec > 0 ? static_cast<double>(events) / wallSec : 0.0;

    std::uint64_t totalOps = 0, verifiedBlocks = 0;
    for (ActiveTenant &a : active) {
        totalOps += a.workload->ops();
        verifiedBlocks += a.oracle->verifiedBlocks();
    }

    const fleet::WaveReport &w = fm.waveReport();
    Gate placementGate{placementQuality, placementFloor, true};
    Gate makespanGate{static_cast<double>(w.makespan) / 1e9,
                      makespanLimitS, false};
    Gate epsGate{eventsPerSec, eventsFloor, true};
    Gate wallGate{wallSec, wallLimit, false};
    bool pass = placementGate.pass() && makespanGate.pass() &&
                epsGate.pass() && wallGate.pass();

    harness::Table t({"cards", "placed/req", "active", "wave ok/fail",
                      "makespan (s)", "io-pause max (ms)", "events (M)",
                      "events/sec (k)", "wall (s)"});
    t.addRow({harness::Table::fmtInt(fm.cards()),
              std::to_string(placed) + "/" + std::to_string(requested),
              harness::Table::fmtInt(static_cast<int>(active.size())),
              std::to_string(w.opsOk) + "/" + std::to_string(w.opsFailed),
              harness::Table::fmt(makespanGate.value, 2),
              harness::Table::fmt(w.ioPauseMsMax, 1),
              harness::Table::fmt(static_cast<double>(events) / 1e6, 2),
              harness::Table::fmt(eventsPerSec / 1e3, 1),
              harness::Table::fmt(wallSec, 1)});
    t.print(quick ? "ext_fleet — rolling upgrade wave (quick)"
                  : "ext_fleet — 32-card rolling upgrade wave");
    std::printf("\nplacement %.3f (floor %.3f), makespan %.2fs "
                "(limit %.0fs), %.0fk events/sec (floor %.0fk), "
                "drill: %u windows / %u node losses / %u storm "
                "rejections\n",
                placementQuality, placementFloor, makespanGate.value,
                makespanLimitS, eventsPerSec / 1e3, eventsFloor / 1e3,
                fm.faultWindowsOpened(), fm.nodeLossesRecovered(),
                fm.stormRejections());

    writeJson(jsonPath, quick ? "quick" : "full", fm, requested, placed,
              static_cast<int>(active.size()), totalOps, verifiedBlocks,
              events, eventsPerSec, wallSec, placementGate, makespanGate,
              epsGate, wallGate, pass);
    std::printf("fleet measurements written to %s\n", jsonPath.c_str());

    if (!pass) {
        std::fprintf(stderr,
                     "ext_fleet: GATE FAILURE (placement %.3f/%.3f, "
                     "makespan %.2f/%.0f, events/sec %.0f/%.0f, "
                     "wall %.1f/%.0f)\n",
                     placementQuality, placementFloor, makespanGate.value,
                     makespanLimitS, eventsPerSec, eventsFloor, wallSec,
                     wallLimit);
        return 1;
    }
    std::printf("ext_fleet: all gates passed\n");
    return 0;
}
