/**
 * @file
 * Reproduces paper Fig. 12: tail-latency distribution of four VMs
 * sharing a BM-Store card with four SSDs, across the six Table IV fio
 * cases. Fairness shows as near-identical per-VM p50/p99/p99.9.
 *
 * Gates (bench::Report): in every case, the largest VM's p50, p99 and
 * p99.9 are at most kFairnessLimit times the smallest VM's.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

/** Fig. 12: the four VMs' tail distributions nearly coincide. */
constexpr double kFairnessLimit = 1.05;

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig12_fairness_tail", argc, argv);
    for (auto spec : workload::fioTableIv()) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 4;
        harness::BmStoreTestbed bed(cfg);
        std::vector<host::BlockDeviceIf *> devs;
        for (int v = 0; v < 4; ++v)
            devs.push_back(bed.addVm(sim::gib(256)).driver);
        auto results = harness::runFioMany(bed.sim(), devs, spec);
        for (auto [name, q] : {std::pair{"p50", 0.50}, std::pair{"p99", 0.99},
                               std::pair{"p999", 0.999}}) {
            std::vector<double> per_vm;
            for (const auto &r : results)
                per_vm.push_back(double(r.latency.quantile(q)));
            auto [lo, hi] = std::minmax_element(per_vm.begin(), per_vm.end());
            report.limit("fig12.maxOverMin." + spec.caseName + "." + name,
                         *hi / *lo, kFairnessLimit);
        }
        for (int v = 0; v < 4; ++v) {
            const auto &r = results[static_cast<std::size_t>(v)];
            report.row("tails")
                .add("case", spec.caseName)
                .add("vm", "VM" + std::to_string(v))
                .add("p50Us", sim::toUs(r.latency.p50()), 1)
                .add("p99Us", sim::toUs(r.latency.p99()), 1)
                .add("p999Us", sim::toUs(r.latency.p999()), 1)
                .add("avgUs", r.avgLatencyUs(), 1);
        }
    }
    report.table("tails", "Fig. 12 — per-VM tail latency, 4 VMs sharing "
                          "BM-Store (fairness)");
    std::printf("\npaper reference: the tail-latency distributions of "
                "the four VMs are close to each other in every test "
                "case.\n");
    return report.finish();
}
