/**
 * @file
 * Reproduces paper Fig. 1: SPDK vhost bandwidth as a function of the
 * number of bound polling cores, with four SSDs.
 *
 * Workload per the paper's caption: fio sequential read, 128 KiB
 * blocks, queue depth 256, 4 threads, libaio — run in four VMs whose
 * virtio disks the vhost target serves from four P4510s. Native
 * 4-disk bandwidth is the 100% reference.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

double
nativeBandwidth(const workload::FioJobSpec &spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    harness::NativeTestbed bed(cfg);
    std::vector<host::BlockDeviceIf *> devs;
    for (int i = 0; i < 4; ++i)
        devs.push_back(&bed.driver(i));
    auto results = harness::runFioMany(bed.sim(), devs, spec);
    double total = 0.0;
    for (const auto &r : results)
        total += r.mbPerSec;
    return total;
}

double
vhostBandwidth(int cores, const workload::FioJobSpec &spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    baselines::SpdkVhostConfig vcfg;
    vcfg.cores = cores;
    harness::VhostTestbed bed(cfg, vcfg);
    std::vector<host::BlockDeviceIf *> devs;
    std::vector<harness::VhostTestbed::VhostVm> vms;
    for (int i = 0; i < 4; ++i) {
        vms.push_back(bed.addVm(i, 0, sim::gib(1536)));
        devs.push_back(vms.back().blk);
    }
    bed.start();
    auto results = harness::runFioMany(bed.sim(), devs, spec);
    double total = 0.0;
    for (const auto &r : results)
        total += r.mbPerSec;
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig01_spdk_cores", argc, argv);
    // The paper's caption: seq read 128K, qd 256, 4 threads (per VM
    // disk); guests use multi-queue virtio, so every extra bound core
    // picks up rings until the SSDs saturate.
    workload::FioJobSpec spec = workload::fioSeqR256();

    double native = nativeBandwidth(spec);
    for (int cores : {1, 2, 3, 4, 6, 8, 10, 12}) {
        double bw = vhostBandwidth(cores, spec);
        report.row("cores")
            .add("vhostCores", cores)
            .add("mbps", bw)
            .add("pctOfNative", bw / native * 100.0, 1);
    }
    report.table("cores", "Fig. 1 — SPDK vhost bandwidth vs bound CPU "
                          "cores (4 SSDs, seq read 128K qd256)");
    report.values().add("nativeMbps", native);
    std::printf("\nnativeMbps: the native 4-disk reference\n");
    std::printf("paper reference: at least 8 cores are needed to reach "
                "~80%% of native.\n");
    return report.finish();
}
