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
 * Three gates make it CI-enforceable:
 *
 *   --scale-floor=R     total IOPS at the largest point must be at
 *                       least R x the smallest point (default 2.0)
 *   --events-floor=N    aggregate simulator events/sec must stay
 *                       above N (default 200000; pass a lower floor
 *                       for sanitizer builds)
 *   --wall-limit-s=S    the whole sweep must finish in S seconds of
 *                       wall time (default 600)
 *
 * `--quick` shrinks the sweep (4/16/48 tenants, shorter windows) for
 * the pre-PR smoke gate; `--json=PATH` overrides where the
 * machine-readable trajectory file lands (default
 * BENCH_full_card.json in the current directory).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

struct SweepPoint
{
    int tenants = 0;
    double iops = 0.0;
    double mbPerSec = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double wallMs = 0.0;
    double simMs = 0.0;
};

double
wallSecondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

SweepPoint
runPoint(int tenants, sim::Tick ramp, sim::Tick run)
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
    auto wall0 = std::chrono::steady_clock::now();
    auto results = harness::runFioMany(bed.sim(), devs, spec);
    double wallSec = wallSecondsSince(wall0);

    SweepPoint p;
    p.tenants = tenants;
    for (const auto &r : results) {
        p.iops += r.iops;
        p.mbPerSec += r.mbPerSec;
    }
    p.events = bed.sim().queue().executedCount() - events0;
    p.eventsPerSec = wallSec > 0 ? static_cast<double>(p.events) / wallSec
                                 : 0.0;
    p.wallMs = wallSec * 1e3;
    p.simMs = static_cast<double>(bed.sim().now() - sim0) / 1e6;
    return p;
}

void
writeJson(const std::string &path, const char *mode,
          const std::vector<SweepPoint> &points, double scaleRatio,
          double scaleFloor, double aggEventsPerSec, double eventsFloor,
          double wallSec, double wallLimit, bool pass)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "ext_full_card: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"ext_full_card\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n  \"ssds\": 4,\n", mode);
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        std::fprintf(f,
                     "    {\"tenants\": %d, \"iops\": %.1f, "
                     "\"mbps\": %.1f, \"events\": %llu, "
                     "\"eventsPerSec\": %.1f, \"wallMs\": %.1f, "
                     "\"simMs\": %.3f}%s\n",
                     p.tenants, p.iops, p.mbPerSec,
                     static_cast<unsigned long long>(p.events),
                     p.eventsPerSec, p.wallMs, p.simMs,
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gates\": {\n");
    std::fprintf(f,
                 "    \"iopsScaling\": {\"value\": %.3f, \"floor\": %.3f, "
                 "\"pass\": %s},\n",
                 scaleRatio, scaleFloor,
                 scaleRatio >= scaleFloor ? "true" : "false");
    std::fprintf(f,
                 "    \"eventsPerSec\": {\"value\": %.1f, \"floor\": %.1f, "
                 "\"pass\": %s},\n",
                 aggEventsPerSec, eventsFloor,
                 aggEventsPerSec >= eventsFloor ? "true" : "false");
    std::fprintf(f,
                 "    \"wallSeconds\": {\"value\": %.1f, \"limit\": %.1f, "
                 "\"pass\": %s}\n",
                 wallSec, wallLimit, wallSec <= wallLimit ? "true" : "false");
    std::fprintf(f, "  },\n  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    bms::harness::applyCommonFlags(argc, argv);

    bool quick = false;
    double scaleFloor = 2.0;
    double eventsFloor = 200e3;
    double wallLimit = 600.0;
    std::string jsonPath = "BENCH_full_card.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strncmp(argv[i], "--scale-floor=", 14) == 0)
            scaleFloor = std::atof(argv[i] + 14);
        else if (std::strncmp(argv[i], "--events-floor=", 15) == 0)
            eventsFloor = std::atof(argv[i] + 15);
        else if (std::strncmp(argv[i], "--wall-limit-s=", 15) == 0)
            wallLimit = std::atof(argv[i] + 15);
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonPath = argv[i] + 7;
    }

    std::vector<int> sweep =
        quick ? std::vector<int>{4, 16, 48}
              : std::vector<int>{4, 16, 64, 128};
    sim::Tick ramp = quick ? sim::milliseconds(1) : sim::milliseconds(2);
    sim::Tick run = quick ? sim::milliseconds(5) : sim::milliseconds(20);

    auto wall0 = std::chrono::steady_clock::now();
    std::vector<SweepPoint> points;
    harness::Table t({"tenants", "total IOPS (k)", "total BW (GB/s)",
                      "sim events (M)", "events/sec (M)", "wall (s)"});
    for (int n : sweep) {
        SweepPoint p = runPoint(n, ramp, run);
        points.push_back(p);
        t.addRow({harness::Table::fmtInt(n),
                  harness::Table::fmt(p.iops / 1e3, 1),
                  harness::Table::fmt(p.mbPerSec / 1e3, 2),
                  harness::Table::fmt(static_cast<double>(p.events) / 1e6, 2),
                  harness::Table::fmt(p.eventsPerSec / 1e6, 2),
                  harness::Table::fmt(p.wallMs / 1e3, 1)});
    }
    double wallSec = wallSecondsSince(wall0);

    double scaleRatio =
        points.front().iops > 0 ? points.back().iops / points.front().iops
                                : 0.0;
    std::uint64_t totalEvents = 0;
    double totalWallSec = 0.0;
    for (const SweepPoint &p : points) {
        totalEvents += p.events;
        totalWallSec += p.wallMs / 1e3;
    }
    double aggEventsPerSec =
        totalWallSec > 0 ? static_cast<double>(totalEvents) / totalWallSec
                         : 0.0;

    t.print(quick ? "ext_full_card — tenant fan-out on 4 SSDs (quick)"
                  : "ext_full_card — 4 PFs + 124 VFs fan-out on 4 SSDs");
    std::printf("\nIOPS scaling %d -> %d tenants: %.2fx (floor %.2fx)\n",
                points.front().tenants, points.back().tenants, scaleRatio,
                scaleFloor);
    std::printf("simulator: %.2f M events/sec aggregate (floor %.2f M), "
                "sweep wall time %.1f s (limit %.0f s)\n",
                aggEventsPerSec / 1e6, eventsFloor / 1e6, wallSec,
                wallLimit);

    bool pass = scaleRatio >= scaleFloor && aggEventsPerSec >= eventsFloor &&
                wallSec <= wallLimit;
    writeJson(jsonPath, quick ? "quick" : "full", points, scaleRatio,
              scaleFloor, aggEventsPerSec, eventsFloor, wallSec, wallLimit,
              pass);
    std::printf("trajectory written to %s\n", jsonPath.c_str());

    if (!pass) {
        std::fprintf(stderr, "ext_full_card: GATE FAILURE (scaling %.2f/%.2f, "
                             "events/sec %.0f/%.0f, wall %.1f/%.0f)\n",
                     scaleRatio, scaleFloor, aggEventsPerSec, eventsFloor,
                     wallSec, wallLimit);
        return 1;
    }
    std::printf("ext_full_card: all gates passed\n");
    return 0;
}
