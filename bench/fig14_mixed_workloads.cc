/**
 * @file
 * Reproduces paper Fig. 14: mixed workloads in multiple VMs —
 * two VMs run YCSB on RocksDB while two VMs run Sysbench on MySQL,
 * concurrently, on the same storage back end. Reported per scheme:
 * (a) RocksDB throughput, (b) MySQL average latency.
 *
 * VFIO needs one whole disk per VM (4 disks, no sharing); BM-Store
 * carves four namespaces from the same 4 disks; SPDK vhost exports
 * four lvol-style partitions through one polling core.
 */

#include <cstdio>
#include <vector>

#include "apps/mysql_model.hh"
#include "apps/rocksdb_model.hh"
#include "apps/sysbench.hh"
#include "apps/ycsb.hh"
#include "harness/testbeds.hh"
#include "report.hh"

using namespace bms;

namespace {

struct MixedResult
{
    double ycsbOps[2] = {0, 0};
    double mysqlLatMs[2] = {0, 0};
    double mysqlTps[2] = {0, 0};
};

/** Drive 2 RocksDB VMs + 2 MySQL VMs to completion. */
MixedResult
runMix(sim::Simulator &sim, std::vector<host::BlockDeviceIf *> devs,
       std::vector<virt::VirtualMachine *> vms)
{
    MixedResult out;
    std::vector<apps::YcsbDriver *> ycsb;
    std::vector<apps::SysbenchDriver *> sysb;
    for (int i = 0; i < 2; ++i) {
        auto *db = sim.make<apps::RocksDbModel>(
            sim, "rocks" + std::to_string(i), *devs[i], vms[i]->vcpus(),
            apps::RocksDbConfig());
        apps::YcsbConfig ycfg;
        ycfg.workload = 'A';
        ycsb.push_back(sim.make<apps::YcsbDriver>(
            sim, "ycsb" + std::to_string(i), *db, ycfg));
    }
    for (int i = 2; i < 4; ++i) {
        auto *db = sim.make<apps::MySqlModel>(
            sim, "mysql" + std::to_string(i), *devs[i], vms[i]->vcpus(),
            apps::MySqlConfig());
        sysb.push_back(sim.make<apps::SysbenchDriver>(
            sim, "sysb" + std::to_string(i), *db,
            apps::SysbenchConfig()));
    }
    for (auto *d : ycsb)
        d->start();
    for (auto *d : sysb)
        d->start();
    auto all_done = [&] {
        for (auto *d : ycsb)
            if (!d->finished())
                return false;
        for (auto *d : sysb)
            if (!d->finished())
                return false;
        return true;
    };
    while (!all_done())
        sim.runUntil(sim.now() + sim::milliseconds(10));
    for (int i = 0; i < 2; ++i) {
        out.ycsbOps[i] = ycsb[static_cast<std::size_t>(i)]
                             ->result()
                             .opsPerSec;
        out.mysqlLatMs[i] = sim::toMs(
            sysb[static_cast<std::size_t>(i)]->result().latency.mean());
        out.mysqlTps[i] =
            sysb[static_cast<std::size_t>(i)]->result().tps;
    }
    return out;
}

MixedResult
runVfio()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    cfg.attachHostDrivers = false;
    harness::NativeTestbed bed(cfg);
    std::vector<host::BlockDeviceIf *> devs;
    std::vector<virt::VirtualMachine *> vms;
    for (int i = 0; i < 4; ++i) {
        auto vm = bed.addVfioVm(i);
        devs.push_back(vm.driver);
        vms.push_back(vm.vm);
    }
    return runMix(bed.sim(), devs, vms);
}

MixedResult
runBms()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    harness::BmStoreTestbed bed(cfg);
    std::vector<host::BlockDeviceIf *> devs;
    std::vector<virt::VirtualMachine *> vms;
    for (int i = 0; i < 4; ++i) {
        auto vm = bed.addVm(sim::gib(512));
        devs.push_back(vm.driver);
        vms.push_back(vm.vm);
    }
    return runMix(bed.sim(), devs, vms);
}

MixedResult
runVhost()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    baselines::SpdkVhostConfig vcfg;
    // One polling core per two SSDs is SPDK's usual sizing guidance;
    // the paper's production servers dedicate 16 cores to 16 SSDs.
    // Four VMs on four disks get four reactor cores here.
    vcfg.cores = 4;
    harness::VhostTestbed bed(cfg, vcfg);
    std::vector<host::BlockDeviceIf *> devs;
    std::vector<virt::VirtualMachine *> vms;
    for (int i = 0; i < 4; ++i) {
        auto vm = bed.addVm(i, 0, sim::gib(512));
        devs.push_back(vm.blk);
        vms.push_back(vm.vm);
    }
    bed.start();
    return runMix(bed.sim(), devs, vms);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig14_mixed_workloads", argc, argv);
    MixedResult vfio = runVfio();
    MixedResult bms = runBms();
    MixedResult vhost = runVhost();

    // Normalized to native; its own row prints the reference 1.00.
    auto add = [&](const char *scheme, const MixedResult &r, int decimals) {
        report.row("rocksdb")
            .add("scheme", scheme)
            .add("vm0OpsPerSec", r.ycsbOps[0])
            .add("vm1OpsPerSec", r.ycsbOps[1])
            .add("normalized",
                 (r.ycsbOps[0] + r.ycsbOps[1]) /
                     (vfio.ycsbOps[0] + vfio.ycsbOps[1]),
                 decimals);
        report.row("mysql")
            .add("scheme", scheme)
            .add("vm2LatMs", r.mysqlLatMs[0], 2)
            .add("vm3LatMs", r.mysqlLatMs[1], 2)
            .add("vm2Tps", r.mysqlTps[0])
            .add("vm3Tps", r.mysqlTps[1]);
    };
    add("native (VFIO)", vfio, 2);
    add("BM-Store", bms, 3);
    add("SPDK vhost", vhost, 3);
    report.table("rocksdb", "Fig. 14(a) — RocksDB/YCSB throughput under "
                            "mixed multi-VM load");
    report.table("mysql", "Fig. 14(b) — MySQL average latency under mixed "
                          "multi-VM load");

    std::printf("\npaper reference: BM-Store achieves near-native "
                "performance even under complex mixed workloads, with "
                "consistent per-VM results (isolation).\n");
    return report.finish();
}
