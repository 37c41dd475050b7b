/**
 * @file
 * Reproduces paper Fig. 10: total bare-metal bandwidth of BM-Store as
 * the number of back-end SSDs grows from 1 to 4 (seq-r-256). One
 * tenant namespace is dedicated per SSD, each running the fio case;
 * linear scaling demonstrates the engine is not the bottleneck.
 *
 * Gates (bench::Report): four SSDs give at least kScalingFloor times
 * one SSD's bandwidth, and their total is within kTolerance of the
 * paper's ~12.4 GB/s.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

/** Fig. 10's 4-SSD total; the paper calls the scaling linear. */
constexpr double kPaperFourSsdGbps = 12.4;
constexpr double kTolerance = 0.10;
constexpr double kScalingFloor = 3.8;

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig10_scalability", argc, argv);
    workload::FioJobSpec spec = workload::fioSeqR256();

    double base = 0.0;
    for (int n = 1; n <= 4; ++n) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = n;
        harness::BmStoreTestbed bed(cfg);
        std::vector<host::BlockDeviceIf *> devs;
        for (int i = 0; i < n; ++i) {
            devs.push_back(&bed.attachTenant(
                static_cast<pcie::FunctionId>(i), sim::gib(1536),
                core::NamespaceManager::Policy::Dedicate,
                core::QosLimits(), nullptr, /*pin_slot=*/i));
        }
        auto results = harness::runFioMany(bed.sim(), devs, spec);
        double total = 0.0;
        for (const auto &r : results)
            total += r.mbPerSec;
        if (n == 1)
            base = total;
        report.row("ssds")
            .add("ssds", n)
            .add("totalGbps", total / 1000.0, 2)
            .add("scalingVs1Ssd", total / base, 2);
        if (n == 4) {
            report.floor("fig10.scalingVs1Ssd.4ssds", total / base,
                         kScalingFloor);
            report.band("fig10.totalGbps.4ssds", total / 1000.0,
                        kPaperFourSsdGbps * (1.0 - kTolerance),
                        kPaperFourSsdGbps * (1.0 + kTolerance));
        }
    }
    report.table("ssds", "Fig. 10 — BM-Store total bandwidth vs number of "
                         "SSDs (bare metal, seq-r-256)");
    std::printf("\npaper reference: bandwidth increases linearly with "
                "the number of SSDs; 4 SSDs saturate ~12.4 GB/s while "
                "using about half the FPGA.\n");
    return report.finish();
}
