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
 * Gates (bench::Report, bounds below): placement quality, wave
 * makespan, final-sweep read failures, events/sec and wall time.
 *
 * The record also prices the run with the paper's §VI-C TCO model
 * at fleet scale: servers of kCardsPerServer cards, the sellable
 * instances and cost per instance of each deployment, and the
 * tenant-hours the measured wave pause saves over taking every
 * placed tenant down for kTakeDownS.
 *
 * `--quick` shrinks the fleet (8 cards, ~160 admissions) for the
 * pre-PR smoke gate; `--json=PATH` overrides where the record lands
 * (default BENCH_fleet.json).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "harness/tco.hh"
#include "report.hh"
#include "sim/random.hh"

using namespace bms;

namespace {

/** Gate bounds: placed / requested admissions, wave makespan in
 *  simulated seconds, then simulator events/sec and whole-bench wall
 *  seconds, relaxed in sanitized builds (about ten times slower). The
 *  events floor is a quarter of the committed record's 1.59M, so a 10x
 *  slower loop fails it; a sanitized or unoptimized build gets the
 *  low one. */
constexpr double kPlacementFloor = 0.9;
constexpr double kMakespanLimitS = 60.0;
constexpr double kEventsFloor = 400e3;
constexpr double kSanitizedEventsFloor = 20e3;
constexpr double kWallLimitS = 600.0;
constexpr double kSanitizedWallLimitS = 580.0;

/** Fleet TCO: BM-Store cards per server (the paper's deployment
 *  shape), and the per-tenant outage of a firmware roll without a
 *  transparent hot upgrade (drain or reboot). */
constexpr int kCardsPerServer = 4;
constexpr double kTakeDownS = 300.0;

struct ActiveTenant
{
    int card = -1;
    std::uint8_t fn = 0;
    fuzz::OracleDevice *oracle = nullptr;
    fuzz::TenantWorkload *workload = nullptr;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("ext_fleet", argc, argv, "BENCH_fleet.json",
                         /*has_quick=*/true);
    bool quick = report.quick();

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
    fuzz::OracleDevice::SweepTally sweep;
    for (ActiveTenant &a : active)
        a.oracle->sweep(sweep);
    while (sweep.pending > 0)
        sim.runUntil(sim.now() + sim::milliseconds(1));

    double wallSec = report.wallSeconds();
    std::uint64_t events = sim.queue().executedCount() - events0;
    double eventsPerSec =
        wallSec > 0 ? static_cast<double>(events) / wallSec : 0.0;

    std::uint64_t totalOps = 0, verifiedBlocks = 0;
    for (ActiveTenant &a : active) {
        totalOps += a.workload->ops();
        verifiedBlocks += a.oracle->verifiedBlocks();
    }

    const fleet::WaveReport &w = fm.waveReport();
    double makespanS = static_cast<double>(w.makespan) / 1e9;

    char traceHash[17];
    std::snprintf(traceHash, sizeof traceHash, "%016llx",
                  static_cast<unsigned long long>(fm.traceHash()));
    report.values()
        .add("cards", fm.cards())
        .add("ssdsPerCard", fc.ssdsPerCard)
        .add("tenantsRequested", requested)
        .add("tenantsPlaced", placed)
        .add("tenantsActive", active.size())
        .add("totalOps", totalOps)
        .add("verifiedBlocks", verifiedBlocks)
        .add("opsOk", w.opsOk)
        .add("opsFailed", w.opsFailed)
        .add("pauses", w.pauses)
        .add("gateTrips", w.gateTrips)
        .add("makespanMs", sim::toMs(w.makespan), 1)
        .add("ioPauseMsMax", w.ioPauseMsMax, 1)
        .add("evacuatedChunks", w.evacuatedChunks)
        .add("faultWindows", fm.faultWindowsOpened())
        .add("nodeLosses", fm.nodeLossesRecovered())
        .add("stormRejections", fm.stormRejections())
        .add("events", events)
        .add("traceHash", traceHash);

    harness::TcoInputs tco;
    harness::TcoResult spdk = harness::tcoSpdk(tco);
    harness::TcoResult bms = harness::tcoBmStore(tco);
    int servers = (fm.cards() + kCardsPerServer - 1) / kCardsPerServer;
    report.values()
        .add("servers", servers)
        .add("spdkInstances", servers * spdk.sellableInstances)
        .add("bmsInstances", servers * bms.sellableInstances)
        .add("spdkCostPerInstance", spdk.costPerInstance, 4)
        .add("bmsCostPerInstance", bms.costPerInstance, 4)
        .add("tenantHoursAvoided",
             placed * (kTakeDownS - w.ioPauseMsMax / 1e3) / 3600.0);
    bool san = bench::Report::sanitized();
    report.floor("placementQuality", placementQuality, kPlacementFloor);
    report.limit("waveMakespanS", makespanS, kMakespanLimitS);
    report.limit("sweepReadsFailed", sweep.failed, 0.0);
    report.floor("eventsPerSec", eventsPerSec,
                 san || !bench::Report::optimized() ? kSanitizedEventsFloor
                                                    : kEventsFloor);
    report.limit("wallSeconds", wallSec,
                 san ? kSanitizedWallLimitS : kWallLimitS);
    return report.finish();
}
