/**
 * @file
 * Reproduces paper Fig. 8 (bare-metal IOPS & bandwidth, 1 disk,
 * native vs BM-Store) and Table V (average latency).
 *
 * Setup (paper §V-B): one P4510; for BM-Store a 1536 GB namespace is
 * allocated from the back-end SSD and bound to a front-end function;
 * fio runs the six Table IV cases with libaio.
 *
 * Gate (bench::Report): at queue depth 1 BM-Store adds the paper's
 * "about 3 us" over native, within [kDeltaFloorUs, kDeltaLimitUs].
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

/** Band around Table V's ~3 us engine overhead at QD1; a 0 ns or a
 *  doubled engine pipeline (ablation_pipeline) falls outside it. */
constexpr double kDeltaFloorUs = 2.0;
constexpr double kDeltaLimitUs = 4.0;

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("fig08_baremetal_single_disk", argc, argv);
    for (const auto &spec : workload::fioTableIv()) {
        harness::TestbedConfig ncfg;
        ncfg.ssdCount = 1;
        harness::NativeTestbed native(ncfg);
        workload::FioResult nres =
            harness::runFio(native.sim(), native.driver(0), spec);

        harness::TestbedConfig bcfg;
        bcfg.ssdCount = 1;
        harness::BmStoreTestbed bms(bcfg);
        host::NvmeDriver &disk = bms.attachTenant(0, sim::gib(1536));
        workload::FioResult bres =
            harness::runFio(bms.sim(), disk, spec);

        double delta = bres.avgLatencyUs() - nres.avgLatencyUs();
        report.row("perf")
            .add("case", spec.caseName)
            .add("nativeIops", nres.iops)
            .add("bmsIops", bres.iops)
            .add("ratioPct", bres.iops / nres.iops * 100.0, 1)
            .add("nativeMbps", nres.mbPerSec)
            .add("bmsMbps", bres.mbPerSec);
        report.row("latency")
            .add("case", spec.caseName)
            .add("nativeAlUs", nres.avgLatencyUs(), 1)
            .add("bmsAlUs", bres.avgLatencyUs(), 1)
            .add("deltaUs", delta, 1);
        if (spec.iodepth == 1)
            report.band("tableV.deltaUs." + spec.caseName, delta,
                        kDeltaFloorUs, kDeltaLimitUs);
    }

    report.table("perf", "Fig. 8 — bare-metal performance, 1 disk "
                         "(native vs BM-Store)");
    report.table("latency",
                 "Table V — average latency, 1 disk (native vs BM-Store)");
    std::printf("\npaper reference: BM-Store reaches 96.2%%-101.4%% of "
                "native except rand-w-1 (82.5%%), ~3 us extra latency.\n");
    return report.finish();
}
