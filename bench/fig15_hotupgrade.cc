/**
 * @file
 * Reproduces paper Fig. 15 and Table IX: the VM-visible IOPS timeline
 * while the SSD firmware is hot-upgraded twice (once under 4K random
 * read, once under 4K random write), plus the upgrade-time breakdown.
 *
 * The upgrade is triggered from the remote console over MCTP/NVMe-MI —
 * the host OS is never involved. Tenant I/O stalls for the activation
 * window but no request fails (the pause is below the NVMe timeout).
 */

#include <cstdio>
#include <vector>

#include "harness/testbeds.hh"
#include "report.hh"
#include "sim/stats.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

struct UpgradeRun
{
    sim::TimeSeries iops{sim::milliseconds(200)};
    std::vector<core::MiUpgradeResult> reports;
    std::uint64_t ioErrors = 0;
};

UpgradeRun
runCase(workload::FioPattern pattern, const char *name)
{
    UpgradeRun out;
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    auto vm = bed.addVm(sim::gib(256));

    workload::FioJobSpec spec;
    spec.pattern = pattern;
    spec.blockSize = 4096;
    spec.iodepth = 16;
    spec.numjobs = 4;
    spec.caseName = name;
    spec.rampTime = 0;
    spec.runTime = sim::seconds(26);

    auto *runner = bed.sim().make<workload::FioRunner>(
        bed.sim(), std::string("fio.") + name, *vm.driver, spec);
    runner->onCompletion = [&out](sim::Tick t, std::uint32_t) {
        out.iops.record(t);
    };
    runner->start();

    // Two hot-upgrades during the run (paper: "performed twice").
    for (sim::Tick at : {sim::seconds(5), sim::seconds(15)}) {
        bed.sim().scheduleAt(at, [&bed, &out] {
            bed.console().firmwareUpgrade(
                bed.controller().endpoint().eid(), /*slot=*/0,
                /*image_bytes=*/4 * 1024 * 1024,
                [&out](core::MiUpgradeResult r) {
                    out.reports.push_back(r);
                });
        });
    }

    while (!runner->finished())
        bed.sim().runUntil(bed.sim().now() + sim::milliseconds(50));
    out.ioErrors = runner->result().errors;
    return out;
}

/** Print @p run's IOPS timeline as bars and record its samples. */
void
printTimeline(bench::Report &report, const char *name, const char *title,
              const UpgradeRun &run)
{
    std::printf("\n== Fig. 15 — VM IOPS timeline during hot-upgrade "
                "(%s) ==\n",
                title);
    std::printf("  (one row per 200 ms; '#' ≈ 8%% of peak)\n");
    double peak = 0.0;
    for (std::size_t i = 0; i < run.iops.size(); ++i)
        peak = std::max(peak, run.iops.rateAt(i));
    for (std::size_t i = 0; i < run.iops.size(); ++i) {
        double t = 0.2 * static_cast<double>(i);
        double r = run.iops.rateAt(i);
        report.row("timeline")
            .add("run", name)
            .add("tS", t, 1)
            .add("iops", r);
        int bars = peak > 0 ? static_cast<int>(r / peak * 12.0) : 0;
        std::printf("  t=%5.1fs %8.0f IOPS |", t, r);
        for (int b = 0; b < bars; ++b)
            std::printf("#");
        std::printf("\n");
    }
    std::printf("  I/O errors observed by the tenant: %llu\n",
                static_cast<unsigned long long>(run.ioErrors));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig15_hotupgrade", argc, argv);
    UpgradeRun rd = runCase(workload::FioPattern::RandRead, "rand-read");
    UpgradeRun wr = runCase(workload::FioPattern::RandWrite,
                            "rand-write");

    printTimeline(report, "rand-read", "4K random read", rd);
    printTimeline(report, "rand-write", "4K random write", wr);

    auto add = [&report](const char *run, const UpgradeRun &u) {
        int i = 1;
        for (const auto &r : u.reports) {
            report.row("upgrades")
                .add("run", run)
                .add("upgrade", i++)
                .add("storeCtxMs", r.storeMs, 1)
                .add("firmwareMs", r.firmwareMs)
                .add("reloadCtxMs", r.reloadMs, 1)
                .add("totalS", r.totalMs / 1000.0, 2)
                .add("ioPauseS", r.ioPauseMs / 1000.0, 2)
                .add("bmsProcessingMs", r.storeMs + r.reloadMs);
        }
        report.values().add(std::string(run) + ".ioErrors", u.ioErrors);
    };
    add("rand-read", rd);
    add("rand-write", wr);
    report.table("upgrades",
                 "Table IX — average time for hot-upgrade of SSD firmware");

    std::printf("\npaper reference: total hot-upgrade time ~6-9 s, of "
                "which BM-Store's own processing is ~100 ms; tenants "
                "see an I/O stall but no errors (pause < NVMe "
                "timeout).\n");
    return report.finish();
}
