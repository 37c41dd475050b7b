/**
 * @file
 * Multi-tenant scenario: eight VMs share one BM-Store card with four
 * back-end SSDs. Six tenants get equal QoS shares; two are capped
 * harder (a "bronze tier"). Shows per-VM bandwidth, the engine's QoS
 * counters, and that the noisy tenants cannot steal the others'
 * share — the paper's isolation story in one program.
 *
 * Build & run:  ./build/examples/multi_tenant_vms
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

int
main()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    harness::BmStoreTestbed bed(cfg);

    // Six "silver" VMs at 1200 MB/s and two "bronze" VMs at 300 MB/s.
    std::vector<host::BlockDeviceIf *> devs;
    std::vector<std::string> tiers;
    for (int i = 0; i < 8; ++i) {
        core::QosLimits share;
        bool bronze = i >= 6;
        share.mbPerSecLimit = bronze ? 300.0 : 1200.0;
        auto vm = bed.addVm(sim::gib(256), share);
        devs.push_back(vm.driver);
        tiers.push_back(bronze ? "bronze" : "silver");
    }

    // Everybody runs the same aggressive sequential-read load.
    workload::FioJobSpec spec = workload::fioSeqR256();
    spec.numjobs = 2;
    auto results = harness::runFioMany(bed.sim(), devs, spec);

    std::printf("8 tenants, 4 SSDs, QoS-tiered shares\n\n"
                "VM   tier      MB/s  avg lat (ms)\n");
    double total = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        total += results[i].mbPerSec;
        std::printf("vm%zu  %-6s %7.0f %13.1f\n", i, tiers[i].c_str(),
                    results[i].mbPerSec,
                    sim::toMs(results[i].latency.mean()));
    }

    std::printf("\naggregate: %.1f GB/s; QoS passed %llu commands, "
                "buffered %llu\n",
                total / 1000.0,
                static_cast<unsigned long long>(
                    bed.engine().qos().passedCount()),
                static_cast<unsigned long long>(
                    bed.engine().qos().bufferedCount()));
    std::printf("silver tenants are bound by their 1200 MB/s share; "
                "bronze by 300 MB/s — no tenant can starve another.\n");
    return 0;
}
