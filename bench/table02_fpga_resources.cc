/**
 * @file
 * Reproduces paper Table II: FPGA resource utilization of the
 * BMS-Engine for 1/2/4/6 back-end SSDs on the Zynq ZU19EG, from the
 * fitted resource model (see core/engine/resources.hh).
 */

#include <cstdio>

#include "core/engine/resources.hh"
#include "report.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    bench::Report report("table02_fpga_resources", argc, argv);
    core::FpgaResourceModel model;
    core::FpgaDevice device;

    for (int n : {1, 2, 4, 6}) {
        core::FpgaUtilization u = model.forSsds(n);
        report.row("designs")
            .add("ssds", n)
            .add("luts", u.luts)
            .add("lutPct", u.lutPct(device))
            .add("registers", u.registers)
            .add("regPct", u.regPct(device))
            .add("brams", u.brams)
            .add("bramPct", u.bramPct(device))
            .add("urams", u.urams, 1)
            .add("uramPct", u.uramPct(device))
            .add("clockMhz", u.clockMhz);
    }
    report.table("designs", "Table II — FPGA resource utilization (ZU19EG)");
    report.values().add("maxSsds", model.maxSsds(device));
    std::printf("\nmaxSsds: the most SSDs that fit the device per the "
                "model (paper: \"BM-Store can support more SSDs with the "
                "remaining resources\")\n");
    return report.finish();
}
