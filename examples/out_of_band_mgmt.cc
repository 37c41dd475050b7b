/**
 * @file
 * Out-of-band management walkthrough — everything a cloud operator
 * does to a bare-metal machine's local storage *without touching the
 * tenant's host OS* (the paper's manageability story):
 *
 *   1. poll card/SSD health over MCTP + NVMe-MI,
 *   2. create a namespace remotely and hand it to the tenant,
 *   3. watch the tenant's live I/O rates through the I/O monitor,
 *   4. hot-upgrade the SSD firmware under load (no tenant errors),
 *   5. hot-plug a replacement disk (front-end identity preserved).
 *
 * Build & run:  ./build/examples/out_of_band_mgmt
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
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    bed.enableSpareDisks();
    core::Eid ctrl = bed.controller().endpoint().eid();

    // 1. Health poll.
    bool step = false;
    bed.console().healthPoll(ctrl, [&](std::vector<core::SlotHealth> v) {
        for (const auto &s : v) {
            std::printf("[health] slot %u present=%d capacity=%.0f GB\n",
                        s.slot, s.present, s.capacityBytes / 1e9);
        }
        step = true;
    });
    bed.runUntilTrue([&] { return step; });

    // 2. Remote namespace creation on VF 4 (the first VF).
    std::uint32_t nsid = 0;
    step = false;
    bed.console().createNamespace(
        ctrl, 4, sim::gib(256), 0, core::QosLimits(),
        [&](std::optional<std::uint32_t> id) {
            nsid = id.value();
            step = true;
        });
    bed.runUntilTrue([&] { return step; });
    std::printf("[ns] created nsid %u on VF4 via NVMe-MI\n", nsid);

    // The tenant (who never saw any of this) binds its stock driver.
    host::NvmeDriver::Config dc;
    dc.nsid = nsid;
    dc.profile = bed.config().host.profile;
    auto *tenant = bed.sim().make<host::NvmeDriver>(
        bed.sim(), "tenant", bed.host().memory(), bed.host().irq(),
        bed.engineSlot(), bed.host().cpus(), 4, dc);
    bool ready = false;
    tenant->init([&] { ready = true; });
    bed.runUntilTrue([&] { return ready; });

    // Long-running tenant workload.
    workload::FioJobSpec spec = workload::fioRandR128();
    spec.rampTime = 0;
    spec.runTime = sim::seconds(20);
    auto *fio = bed.sim().make<workload::FioRunner>(bed.sim(), "fio",
                                                    *tenant, spec);
    fio->start();
    bed.sim().runFor(sim::seconds(1));

    // 3. Live I/O statistics.
    step = false;
    bed.console().ioStats(ctrl, 4, [&](std::optional<core::MiIoStats> s) {
        const core::MiIoStats &stats = s.value();
        std::printf("[monitor] VF4: %.0f read IOPS, %.0f MB/s\n",
                    stats.readIops, stats.readMbps);
        step = true;
    });
    bed.runUntilTrue([&] { return step; });

    // 4. Firmware hot-upgrade under load.
    step = false;
    bed.console().firmwareUpgrade(
        ctrl, 0, 4 << 20, [&](core::MiUpgradeResult r) {
            std::printf("[hot-upgrade] ok=%d total=%.1f s "
                        "(BM-Store processing %.0f ms)\n",
                        r.ok, r.totalMs / 1000.0,
                        r.storeMs + r.reloadMs);
            step = true;
        });
    bed.runUntilTrue([&] { return step; }, sim::seconds(30));

    // 5. Hot-plug replacement.
    step = false;
    bed.console().hotPlug(ctrl, 0, [&](core::MiHotPlugResult r) {
        std::printf("[hot-plug] ok=%d I/O pause %.1f s — tenant's "
                    "logical drive never disappeared\n",
                    r.ok, r.ioPauseMs / 1000.0);
        step = true;
    });
    bed.runUntilTrue([&] { return step; }, sim::seconds(30));

    // Let the workload finish and prove the tenant never saw an error.
    bed.runUntilTrue([&] { return fio->finished(); }, sim::seconds(60));
    std::printf("[tenant] %llu I/Os completed, %llu errors\n",
                static_cast<unsigned long long>(fio->result().completed),
                static_cast<unsigned long long>(fio->result().errors));
    return 0;
}
