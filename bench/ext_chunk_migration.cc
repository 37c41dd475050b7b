/**
 * @file
 * Extension bench: tenant impact of live chunk migration.
 *
 * A bare-metal tenant runs 4K random reads against a namespace
 * dedicated to back-end slot 0 while the MigrationManager moves its
 * chunks between the two SSDs in a continuous rebalance loop. For
 * each copy-bandwidth budget the bench reports the tenant's
 * throughput and p99 latency during the rebalance against the idle
 * baseline, plus the migration speed the budget actually bought.
 *
 * Gates (bench::Report): for every budget the tenant keeps at least
 * kRetainedFloor of its idle IOPS during the rebalance, and both fio
 * windows obey Little's law. `--json=PATH` overrides where the record
 * lands (default BENCH_chunk_migration.json); there is no quick mode.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

/** Tenant IOPS during the rebalance over its idle IOPS. */
constexpr double kRetainedFloor = 0.50;

struct BudgetResult
{
    workload::FioResult idle;
    workload::FioResult busy;
    std::uint32_t migrations = 0;
    std::uint64_t bytesCopied = 0;
    double migrationMbps = 0.0;
};

workload::FioJobSpec
tenantSpec(const char *name, sim::Tick run_time)
{
    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::RandRead;
    spec.blockSize = 4096;
    spec.iodepth = 16;
    spec.numjobs = 4;
    spec.caseName = name;
    spec.rampTime = 0;
    spec.runTime = run_time;
    return spec;
}

BudgetResult
runBudget(bench::Report &report, double budget_mbps, const std::string &name)
{
    BudgetResult out;

    harness::TestbedConfig cfg;
    cfg.ssdCount = 2;
    cfg.chunkBytes = sim::gib(1); // 4 chunks → minutes of copy traffic
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(
        0, sim::gib(4), core::NamespaceManager::Policy::Dedicate,
        core::QosLimits(), nullptr, /*pin_slot=*/0);

    // Phase 1 — idle baseline, no migration traffic.
    out.idle = report.runFio("idle." + name, bed.sim(), disk,
                             tenantSpec("idle", sim::seconds(3)));

    // Phase 2 — continuous rebalance: as soon as one chunk lands,
    // the next one starts moving (cycling the namespace's 4 chunks,
    // auto-picked destination), until the measured window closes.
    core::MigrationManager &mig = bed.controller().migration();
    mig.setBudget(budget_mbps);
    auto stop = std::make_shared<bool>(false);
    auto next = std::make_shared<std::function<void(std::uint32_t)>>();
    *next = [&mig, stop, next](std::uint32_t chunk) {
        if (*stop) {
            // Break the next→next reference cycle, which would leak the
            // closure. This runs inside *next itself, so move it into a
            // local: the executing closure lives until this returns.
            auto self = std::move(*next);
            return;
        }
        mig.migrate(0, 1, chunk, core::MigrationManager::kAutoSlot,
                    [stop, next, chunk](core::MigrationManager::Report) {
                        (*next)((chunk + 1) % 4);
                    });
    };
    std::uint64_t bytes0 = mig.bytesCopied();
    std::uint32_t started0 = mig.started();
    sim::Tick t0 = bed.sim().now();
    (*next)(0);
    out.busy = report.runFio("rebal." + name, bed.sim(), disk,
                             tenantSpec("rebalance", sim::seconds(6)));
    sim::Tick window = bed.sim().now() - t0;
    *stop = true;

    out.migrations = mig.started() - started0;
    out.bytesCopied = mig.bytesCopied() - bytes0;
    // The aggregate counter only rolls up finished migrations; add
    // the in-flight copy's progress so slow budgets aren't undersold.
    for (const auto &s : mig.status()) {
        if (s.state == core::MigrationState::Copying ||
            s.state == core::MigrationState::CuttingOver)
            out.bytesCopied += s.bytesCopied;
    }
    out.migrationMbps =
        static_cast<double>(out.bytesCopied) / 1e6 / sim::toSec(window);

    // Let the in-flight migration retire so the world tears down
    // clean (map flipped, chunks released, gate closed).
    bed.runUntilTrue([&] { return mig.idle(); }, sim::seconds(60));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("ext_chunk_migration", argc, argv,
                         "BENCH_chunk_migration.json", /*has_quick=*/false);

    // 400 MB/s is the MigrationManager's shipped budget; an unpaced copy
    // reaches about 590 MB/s, so every paced point binds.
    for (int budget : {50, 200, 400, 0}) {
        std::string name = budget > 0 ? std::to_string(budget) : "unpaced";
        BudgetResult r = runBudget(report, budget, name);
        double retained = r.idle.iops > 0 ? r.busy.iops / r.idle.iops : 0;
        double idleP99Us = static_cast<double>(r.idle.latency.p99()) / 1e3;
        double busyP99Us = static_cast<double>(r.busy.latency.p99()) / 1e3;
        report.row("budgets")
            .add("budgetMbps", budget, 0)
            .add("idleIops", r.idle.iops, 1)
            .add("rebalIops", r.busy.iops, 1)
            .add("idleP99Us", idleP99Us, 1)
            .add("rebalP99Us", busyP99Us, 1)
            .add("migrationMbps", r.migrationMbps, 1)
            .add("chunksMoved", r.migrations);
        report.floor("retained." + name, retained, kRetainedFloor);
    }
    report.table("budgets", "Ext — tenant throughput/latency during live "
                            "chunk rebalancing (4K randread, namespace "
                            "dedicated to slot 0)");

    std::printf("\nthe copy budget caps migration speed (QoS-paced "
                "through the engine); an unpaced copy moves data "
                "fastest but costs the most tenant throughput.\n");
    return report.finish();
}
