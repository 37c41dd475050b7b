/**
 * @file
 * Reproduces paper Table VI: BM-Store I/O performance across host
 * operating systems and kernel versions — the transparency /
 * large-scale-deployability claim. The device needs no host-side
 * changes; only the host software path differs.
 *
 * Workload per the paper: 4K random read, iodepth 16. The paper's
 * CentOS rows imply ~256 in-flight (we use 16 jobs) while the Fedora
 * rows imply ~128 (8 jobs); see EXPERIMENTS.md for the discrepancy
 * note.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    bench::Report report("table06_os_kernels", argc, argv);
    struct Platform
    {
        host::PlatformProfile profile;
        int numjobs;
    };
    std::vector<Platform> platforms = {
        {host::centos7("3.10.0"), 16},   {host::centos7("4.19.127"), 16},
        {host::centos7("5.4.3"), 16},    {host::fedora33("4.9.296"), 8},
        {host::fedora33("5.8.15"), 8},
    };

    for (const auto &p : platforms) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 1;
        cfg.host.profile = p.profile;
        cfg.ioQueues = static_cast<std::uint16_t>(p.numjobs);
        harness::BmStoreTestbed bed(cfg);
        host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(1536));

        workload::FioJobSpec spec;
        spec.pattern = workload::FioPattern::RandRead;
        spec.blockSize = 4096;
        spec.iodepth = 16;
        spec.numjobs = p.numjobs;
        spec.caseName = "rand-r-16";
        workload::FioResult res = harness::runFio(bed.sim(), disk, spec);

        report.row("platforms")
            .add("os", p.profile.os)
            .add("kernel", p.profile.kernel)
            .add("kiops", res.iops / 1000.0)
            .add("mbps", res.mbPerSec)
            .add("alUs", res.avgLatencyUs(), 1);
    }
    report.table("platforms", "Table VI — BM-Store across OS / kernel "
                              "versions (4K rand read, qd16)");
    std::printf("\npaper reference: CentOS rows 642K IOPS / ~395 us; "
                "Fedora rows ~605K IOPS / ~207 us; identical results "
                "across kernels within an OS.\n");
    return report.finish();
}
