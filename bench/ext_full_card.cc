/**
 * @file
 * Extension bench: full-card 124-VF fan-out on the multi-queue engine.
 *
 * Sweeps the tenant count from a handful of PFs up to all 128
 * functions (4 PFs + 124 VFs, paper §IV-E) against a 4-SSD back end,
 * every tenant hammering 4K random reads through its own multi-SQ
 * NVMe driver. For each point the bench reports the modeled IOPS
 * ceiling and — because the sweep is also the stress test for the
 * event scheduler — the simulator's own events/sec and wall time.
 * Gates (bench::Report, bounds below): IOPS scaling, Little's law at
 * every point, aggregate events/sec and the sweep's wall time.
 *
 * `--quick` shrinks the sweep (4/16/48 tenants, shorter windows) for
 * the pre-PR smoke gate; `--json=PATH` overrides where the record
 * lands (default BENCH_full_card.json in the current directory).
 */

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

/** Gate bounds: total IOPS at the full-card point over the smallest
 *  point, then aggregate simulator events/sec and sweep wall seconds,
 *  relaxed in sanitized builds (about ten times slower). */
constexpr double kScaleFloor = 2.0;
constexpr double kEventsFloor = 200e3;
constexpr double kSanitizedEventsFloor = 20e3;
constexpr double kWallLimitS = 600.0;
constexpr double kSanitizedWallLimitS = 300.0;

struct SweepPoint
{
    double iops = 0.0;
    double mbPerSec = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double wallSec = 0.0;
};

SweepPoint
runPoint(bench::Report &report, int tenants, sim::Tick ramp, sim::Tick run)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    cfg.ioQueues = 4;
    // 1 GiB chunks: the default 64 GiB geometry yields only 29 chunks
    // per 2.0 TB P4510, too few for 128 one-chunk namespaces.
    cfg.chunkBytes = sim::gib(1);
    // Mixed QPRIO classes so the WRR path sees real traffic too.
    cfg.sqPriorities = {nvme::kQPrioHigh, nvme::kQPrioMedium,
                        nvme::kQPrioMedium, nvme::kQPrioLow};
    cfg.engine.frontArb = nvme::ArbitrationMode::WeightedRoundRobin;
    harness::BmStoreTestbed bed(cfg);

    std::vector<host::BlockDeviceIf *> devs;
    for (int i = 0; i < tenants; ++i)
        devs.push_back(&bed.attachTenant(
            static_cast<pcie::FunctionId>(i), sim::gib(1)));

    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::RandRead;
    spec.blockSize = 4096;
    // QD2 per tenant: small points stay latency-bound, so the sweep
    // actually shows fan-out headroom up to the card's IOPS ceiling.
    spec.iodepth = 2;
    spec.numjobs = 1;
    spec.rampTime = ramp;
    spec.runTime = run;
    spec.caseName = "full-card-rand-r";

    std::uint64_t events0 = bed.sim().queue().executedCount();
    sim::Tick sim0 = bed.sim().now();
    double wall0 = report.wallSeconds();
    auto results = report.runFioMany("tenants" + std::to_string(tenants),
                                     bed.sim(), devs, spec);

    SweepPoint p;
    p.wallSec = report.wallSeconds() - wall0;
    for (const auto &r : results) {
        p.iops += r.iops;
        p.mbPerSec += r.mbPerSec;
    }
    p.events = bed.sim().queue().executedCount() - events0;
    p.eventsPerSec =
        p.wallSec > 0 ? static_cast<double>(p.events) / p.wallSec : 0.0;
    report.row("points")
        .add("tenants", tenants)
        .add("iops", p.iops, 1)
        .add("mbps", p.mbPerSec, 1)
        .add("events", p.events)
        .add("eventsPerSec", p.eventsPerSec, 1)
        .add("wallMs", p.wallSec * 1e3, 1)
        .add("simMs", static_cast<double>(bed.sim().now() - sim0) / 1e6, 3);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("ext_full_card", argc, argv, "BENCH_full_card.json",
                         /*has_quick=*/true);
    bool quick = report.quick();

    std::vector<int> sweep =
        quick ? std::vector<int>{4, 16, 48}
              : std::vector<int>{4, 16, 64, 128};
    sim::Tick ramp = quick ? sim::milliseconds(1) : sim::milliseconds(2);
    sim::Tick run = quick ? sim::milliseconds(5) : sim::milliseconds(20);

    std::vector<SweepPoint> points;
    std::uint64_t totalEvents = 0;
    double totalWallSec = 0.0;
    harness::Table t({"tenants", "total IOPS (k)", "total BW (GB/s)",
                      "sim events (M)", "events/sec (M)", "wall (s)"});
    for (int n : sweep) {
        SweepPoint p = runPoint(report, n, ramp, run);
        points.push_back(p);
        totalEvents += p.events;
        totalWallSec += p.wallSec;
        t.addRow({harness::Table::fmtInt(n),
                  harness::Table::fmt(p.iops / 1e3, 1),
                  harness::Table::fmt(p.mbPerSec / 1e3, 2),
                  harness::Table::fmt(static_cast<double>(p.events) / 1e6, 2),
                  harness::Table::fmt(p.eventsPerSec / 1e6, 2),
                  harness::Table::fmt(p.wallSec, 1)});
    }
    t.print(quick ? "ext_full_card — tenant fan-out on 4 SSDs (quick)"
                  : "ext_full_card — 4 PFs + 124 VFs fan-out on 4 SSDs");

    bool san = bench::Report::sanitized();
    report.values().add("ssds", 4);
    report.floor("iopsScaling",
                 points.front().iops > 0
                     ? points.back().iops / points.front().iops
                     : 0.0,
                 kScaleFloor);
    report.floor("eventsPerSec",
                 totalWallSec > 0 ? totalEvents / totalWallSec : 0.0,
                 san ? kSanitizedEventsFloor : kEventsFloor);
    report.limit("wallSeconds", report.wallSeconds(),
                 san ? kSanitizedWallLimitS : kWallLimitS);
    return report.finish();
}
