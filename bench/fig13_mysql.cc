/**
 * @file
 * Reproduces paper Fig. 13 and Table VIII: MySQL in a VM backed by
 * VFIO (native), BM-Store, or SPDK vhost —
 *   (a) TPC-C (100 warehouses, 32 threads): normalized transactions;
 *   (b) Sysbench OLTP: normalized queries/transactions + avg latency.
 */

#include <cstdio>

#include "apps/mysql_model.hh"
#include "apps/sysbench.hh"
#include "apps/tpcc.hh"
#include "harness/testbeds.hh"
#include "report.hh"

using namespace bms;

namespace {

struct AppResult
{
    double tpccTps = 0.0;
    double sysbenchTps = 0.0;
    double sysbenchQps = 0.0;
    double sysbenchLatMs = 0.0;
};

/** Run TPC-C then Sysbench against a block device inside a VM. */
AppResult
runApps(sim::Simulator &sim, host::BlockDeviceIf &dev,
        virt::VirtualMachine &vm)
{
    AppResult out;
    apps::MySqlConfig mycfg;
    auto *db = sim.make<apps::MySqlModel>(sim, "mysql", dev, vm.vcpus(),
                                          mycfg);

    apps::TpccConfig tcfg;
    auto *tpcc = sim.make<apps::TpccDriver>(sim, "tpcc", *db, tcfg);
    tpcc->start();
    while (!tpcc->finished())
        sim.runUntil(sim.now() + sim::milliseconds(10));
    out.tpccTps = tpcc->result().tps;

    apps::SysbenchConfig scfg;
    auto *sysb = sim.make<apps::SysbenchDriver>(sim, "sysbench", *db,
                                                scfg);
    sysb->start();
    while (!sysb->finished())
        sim.runUntil(sim.now() + sim::milliseconds(10));
    out.sysbenchTps = sysb->result().tps;
    out.sysbenchQps = sysb->result().qps;
    out.sysbenchLatMs = sim::toMs(sysb->result().latency.mean());
    return out;
}

AppResult
runVfio()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.attachHostDrivers = false;
    harness::NativeTestbed bed(cfg);
    auto vm = bed.addVfioVm(0);
    return runApps(bed.sim(), *vm.driver, *vm.vm);
}

AppResult
runBms()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    auto vm = bed.addVm(sim::gib(1536));
    return runApps(bed.sim(), *vm.driver, *vm.vm);
}

AppResult
runVhost()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    baselines::SpdkVhostConfig vcfg;
    vcfg.cores = 1;
    harness::VhostTestbed bed(cfg, vcfg);
    auto vm = bed.addVm(0, 0, sim::gib(1536));
    bed.start();
    return runApps(bed.sim(), *vm.blk, *vm.vm);
}

/** BM-Store over native, on TPC-C transactions and Sysbench
 *  transactions: the paper puts it within 2.6 %. */
constexpr double kNativeFloor = 0.974;
constexpr double kNativeLimit = 1.026;
/** BM-Store over SPDK vhost: +13.4 % TPC-C transactions and +8.1 %
 *  Sysbench queries in the paper. */
constexpr double kPaperTpccOverVhost = 1.134;
constexpr double kPaperSysbenchQpsOverVhost = 1.081;
constexpr double kTolerance = 0.10;
/** BM-Store must beat vhost on Sysbench queries: ±10 % around +8.1 %
 *  would reach down to 0.973 and pass a vhost that wins. */
constexpr double kSysbenchQpsOverVhostFloor = 1.0;

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig13_mysql", argc, argv);
    AppResult vfio = runVfio();
    AppResult bms = runBms();
    AppResult vhost = runVhost();

    // Normalized to native; its own row prints the reference 1.00.
    auto add = [&](const char *scheme, const AppResult &r, int decimals) {
        report.row("tpcc")
            .add("scheme", scheme)
            .add("tps", r.tpccTps)
            .add("normalized", r.tpccTps / vfio.tpccTps, decimals);
        report.row("sysbench")
            .add("scheme", scheme)
            .add("tps", r.sysbenchTps)
            .add("qps", r.sysbenchQps)
            .add("normTps", r.sysbenchTps / vfio.sysbenchTps, decimals)
            .add("avgLatMs", r.sysbenchLatMs, 2);
    };
    add("native (VFIO)", vfio, 2);
    add("BM-Store", bms, 3);
    add("SPDK vhost", vhost, 3);
    report.table("tpcc",
                 "Fig. 13(a) — TPC-C normalized transactions (MySQL in VM)");
    report.table("sysbench",
                 "Fig. 13(b) + Table VIII — Sysbench OLTP (MySQL in VM)");

    report.band("fig13.bmsOverNative.tpcc", bms.tpccTps / vfio.tpccTps,
                kNativeFloor, kNativeLimit);
    report.band("fig13.bmsOverNative.sysbench",
                bms.sysbenchTps / vfio.sysbenchTps, kNativeFloor,
                kNativeLimit);
    report.band("fig13.bmsOverVhost.tpcc", bms.tpccTps / vhost.tpccTps,
                kPaperTpccOverVhost * (1.0 - kTolerance),
                kPaperTpccOverVhost * (1.0 + kTolerance));
    report.band("fig13.bmsOverVhost.sysbenchQps",
                bms.sysbenchQps / vhost.sysbenchQps,
                kSysbenchQpsOverVhostFloor,
                kPaperSysbenchQpsOverVhost * (1.0 + kTolerance));

    std::printf("\npaper reference: BM-Store within ~2.6%% of native; "
                "up to 13.4%% more TPC-C transactions and ~8.1%% more "
                "Sysbench queries than SPDK vhost; vhost adds ~11.2%% "
                "latency vs native's 2.6%% for BM-Store.\n");
    return report.finish();
}
