/**
 * @file
 * Reproduces the §VI-C TCO analysis: sellable instances per server and
 * cost per instance for the SPDK-vhost and BM-Store deployments. The
 * same model priced at fleet scale is part of `ext_fleet`'s record.
 */

#include <cstdio>

#include "harness/tco.hh"
#include "report.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    bench::Report report("tco_analysis", argc, argv);
    harness::TcoInputs in;
    harness::TcoResult spdk = harness::tcoSpdk(in);
    harness::TcoResult bms = harness::tcoBmStore(in);
    harness::TcoComparison cmp = harness::compareTco(in);

    auto add = [&report](const char *deployment, int usable_ht,
                         const harness::TcoResult &r) {
        report.row("deployments")
            .add("deployment", deployment)
            .add("usableHt", usable_ht)
            .add("sellableInstances", r.sellableInstances)
            .add("serverCost", r.serverCost, 3)
            .add("costPerInstance", r.costPerInstance, 4);
    };
    add("SPDK vhost (16 polling cores)", in.serverHt - in.vhostDedicatedHt,
        spdk);
    add("BM-Store (4 cards, +3% HW)", in.serverHt, bms);
    report.table("deployments",
                 "§VI-C — TCO analysis (server: 128 HT / 1024 GB / 16 SSDs; "
                 "instance: 8 HT / 64 GB / 1 SSD)");
    report.values()
        .add("moreInstancesPct", cmp.moreInstancesPct, 1)
        .add("tcoReductionPct", cmp.tcoReductionPct, 1);
    std::printf("\npaper reference: 14.3%% more instances per server, at "
                "least 11.3%% TCO reduction.\n");
    return report.finish();
}
