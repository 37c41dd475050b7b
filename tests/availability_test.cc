/**
 * @file
 * Availability tests: firmware hot-upgrade and hot-plug disk
 * replacement under live tenant I/O — the paper's §IV-D guarantees:
 * I/O pauses but never fails, front-end identities survive, and
 * BM-Store's own processing stays ~100 ms.
 */

#include <gtest/gtest.h>

#include "fuzz/fuzzer.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

harness::TestbedConfig
cfgOf(int ssds, bool functional = false)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = ssds;
    cfg.ssd.functionalData = functional;
    return cfg;
}

} // namespace

TEST(HotUpgrade, NoTenantErrorsAndTimelyRecovery)
{
    harness::BmStoreTestbed bed(cfgOf(1));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));

    workload::FioJobSpec spec = workload::fioRandR1();
    spec.rampTime = 0;
    spec.runTime = sim::seconds(12);
    auto *fio = bed.sim().make<workload::FioRunner>(bed.sim(), "fio",
                                                    disk, spec);
    fio->start();

    core::HotUpgradeManager::Report report;
    bool upgraded = false;
    bed.sim().scheduleAt(sim::seconds(2), [&] {
        bed.controller().hotUpgrade().upgrade(
            0, 1u << 20,
            [&](core::HotUpgradeManager::Report r) {
                report = r;
                upgraded = true;
            });
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return fio->finished(); },
                               sim::seconds(60)));
    ASSERT_TRUE(upgraded);
    EXPECT_TRUE(report.ok);

    // Paper Table IX: 6-9 s total, ~100 ms of BM-Store processing.
    EXPECT_GE(report.total, sim::seconds(6));
    EXPECT_LE(report.total, sim::milliseconds(9500));
    EXPECT_NEAR(static_cast<double>(report.bmsProcessing()),
                static_cast<double>(sim::milliseconds(100)),
                static_cast<double>(sim::milliseconds(10)));

    // Tenant saw a stall but zero errors, and I/O kept flowing after.
    EXPECT_EQ(fio->result().errors, 0u);
    EXPECT_GT(fio->result().completed, 100'000u);
    EXPECT_EQ(bed.ssd(0).firmwareActivations(), 1u);
    // Max latency reflects the pause (several seconds).
    EXPECT_GT(fio->result().latency.max(), sim::seconds(5));
}

TEST(HotUpgrade, SecondUpgradeAfterFirst)
{
    harness::BmStoreTestbed bed(cfgOf(1));
    bed.attachTenant(0, sim::gib(128));
    int done = 0;
    bed.controller().hotUpgrade().upgrade(
        0, 4096,
        [&](core::HotUpgradeManager::Report r) {
            EXPECT_TRUE(r.ok);
            ++done;
            bed.controller().hotUpgrade().upgrade(
                0, 4096,
                [&](core::HotUpgradeManager::Report r2) {
                    EXPECT_TRUE(r2.ok);
                    ++done;
                });
        });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done == 2; },
                               sim::seconds(40)));
    EXPECT_EQ(bed.ssd(0).firmwareActivations(), 2u);
    EXPECT_EQ(bed.controller().hotUpgrade().upgradesCompleted(), 2u);
}

TEST(HotPlug, FrontEndIdentityPreserved)
{
    harness::BmStoreTestbed bed(cfgOf(1, /*functional=*/true));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));

    // Tenant writes data to the old disk.
    auto &mem = bed.host().memory();
    std::uint64_t buf = mem.alloc(4096);
    std::vector<std::uint8_t> data(4096, 0x5A);
    mem.write(buf, 4096, data.data());
    bool wrote = false;
    host::BlockRequest wr;
    wr.op = host::BlockRequest::Op::Write;
    wr.offset = 0;
    wr.len = 4096;
    wr.dataAddr = buf;
    wr.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        wrote = true;
    };
    disk.submit(std::move(wr));
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

    // Replace the SSD with a spare.
    ssd::SsdDevice::Config scfg;
    scfg.functionalData = true;
    auto *spare = bed.sim().make<ssd::SsdDevice>(bed.sim(), "spare", scfg);
    bool replaced = false;
    core::HotPlugManager::Report rep;
    bed.controller().hotPlug().replace(
        0, *spare, [&](core::HotPlugManager::Report r) {
            rep = r;
            replaced = true;
        });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return replaced; },
                               sim::seconds(20)));
    EXPECT_TRUE(rep.ok);
    EXPECT_GE(rep.ioPause, rep.swapTime);

    // The tenant's logical drive never disappeared: the same driver
    // instance keeps working with no rescan or re-init.
    EXPECT_TRUE(disk.ready());
    bool read_done = false;
    std::uint64_t rbuf = mem.alloc(4096);
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = 0;
    rd.len = 4096;
    rd.dataAddr = rbuf;
    rd.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        read_done = true;
    };
    disk.submit(std::move(rd));
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return read_done; }));

    // A replacement disk is factory-fresh: reads return zeroes (data
    // restoration is a higher-layer concern, as the paper notes for
    // faulty-disk replacement).
    std::vector<std::uint8_t> got(4096, 0xFF);
    mem.read(rbuf, 4096, got.data());
    for (std::uint8_t b : got)
        ASSERT_EQ(b, 0);
}

TEST(HotPlug, IoContinuesAcrossReplacement)
{
    harness::BmStoreTestbed bed(cfgOf(1));
    bed.enableSpareDisks();
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));

    workload::FioJobSpec spec = workload::fioRandR1();
    spec.rampTime = 0;
    spec.runTime = sim::seconds(5);
    auto *fio = bed.sim().make<workload::FioRunner>(bed.sim(), "fio",
                                                    disk, spec);
    fio->start();

    bool replaced = false;
    bed.sim().scheduleAt(sim::seconds(1), [&] {
        bed.console().hotPlug(bed.controller().endpoint().eid(), 0,
                              [&](core::MiHotPlugResult r) {
                                  EXPECT_TRUE(r.ok);
                                  replaced = true;
                              });
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return fio->finished(); },
                               sim::seconds(30)));
    EXPECT_TRUE(replaced);
    EXPECT_EQ(fio->result().errors, 0u);
    EXPECT_GT(fio->result().completed, 10'000u);
    EXPECT_EQ(bed.controller().hotPlug().replacementsCompleted(), 1u);
}

// A back-end bring-up reuses the adaptor's one chip block of rings, so
// replacing SSD after SSD does not grow chip memory. A pulled disk gives
// its flash pages back, so data written before each swap does not pile
// up in the page store either.
TEST(HotPlug, ChipMemoryStaysBoundedAcrossReplacements)
{
    harness::BmStoreTestbed bed(cfgOf(1, /*functional=*/true));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    auto &mem = bed.host().memory();
    // Two pages: PRP1 and PRP2 carry them, so no CID's PRP list page
    // enters host memory.
    constexpr std::uint32_t kLen = 8 * 1024;
    std::uint64_t buf = mem.alloc(kLen);
    auto writeReplaceAndRead = [&](int n) {
        std::vector<std::uint8_t> data(kLen, static_cast<std::uint8_t>(n + 1));
        mem.write(buf, kLen, data.data());
        bool wrote = false;
        host::BlockRequest wr;
        wr.op = host::BlockRequest::Op::Write;
        wr.len = kLen;
        wr.dataAddr = buf;
        wr.done = [&](bool ok) {
            EXPECT_TRUE(ok);
            wrote = true;
        };
        disk.submit(std::move(wr));
        ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

        ssd::SsdDevice::Config scfg;
        scfg.functionalData = true;
        auto *spare = bed.sim().make<ssd::SsdDevice>(
            bed.sim(), "spare" + std::to_string(n), scfg);
        bool replaced = false;
        bed.controller().hotPlug().replace(
            0, *spare, [&](core::HotPlugManager::Report r) {
                EXPECT_TRUE(r.ok);
                replaced = true;
            });
        ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return replaced; },
                                   sim::seconds(20)));
        int done = 0;
        for (int i = 0; i < 8; ++i) {
            host::BlockRequest rd;
            rd.op = host::BlockRequest::Op::Read;
            rd.offset = static_cast<std::uint64_t>(i) * 4096;
            rd.len = 4096;
            rd.done = [&](bool ok) {
                EXPECT_TRUE(ok);
                ++done;
            };
            disk.submit(std::move(rd));
        }
        ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done == 8; }));
    };
    writeReplaceAndRead(0);
    std::size_t chip = bed.engine().chipMemory().allocatedPages();
    std::size_t live = bed.sim().pages().livePages();
    for (int n = 1; n < 4; ++n) {
        writeReplaceAndRead(n);
        EXPECT_EQ(bed.engine().chipMemory().allocatedPages(), chip);
        EXPECT_EQ(bed.sim().pages().livePages(), live) << "swap " << n;
    }
}

// One maintenance flow owns a back-end slot at a time. A flow that
// finds its slot held is refused (ok=false, counted) and changes
// nothing, a flow on another slot proceeds, and every flow, failed or
// not, hands the slot back when it reports.
TEST(SlotOwner, OneMaintenanceFlowPerSlot)
{
    harness::TestbedConfig cfg = cfgOf(2);
    cfg.chunkBytes = sim::mib(8);
    harness::BmStoreTestbed bed(cfg);
    bed.attachTenant(0, sim::mib(16)); // one chunk on each slot
    core::BmsEngine &engine = bed.engine();
    core::HotUpgradeManager &up = bed.controller().hotUpgrade();
    core::HotPlugManager &hp = bed.controller().hotPlug();
    core::NamespaceManager &ns = bed.controller().namespaces();
    int spares = 0;
    auto spare = [&]() -> ssd::SsdDevice & {
        return *bed.sim().make<ssd::SsdDevice>(
            bed.sim(), "spare" + std::to_string(spares++),
            bed.config().ssd);
    };
    using Up = core::HotUpgradeManager::Report;
    using Swap = core::HotPlugManager::Report;
    // Every flow has reported and both slots are free again.
    auto settled = [&](const std::function<bool()> &pred) {
        return test::runUntil(bed.sim(), pred, sim::seconds(40)) &&
               engine.slotOwner(0) == core::SlotOwner::None &&
               engine.slotOwner(1) == core::SlotOwner::None;
    };

    // An upgrade holds slot 0: a second upgrade and a replacement of
    // slot 0 are refused, an upgrade of slot 1 proceeds.
    std::optional<bool> up0, up0_again, swap0, up1;
    up.upgrade(0, 4096, [&](Up r) { up0 = r.ok; });
    EXPECT_EQ(engine.slotOwner(0), core::SlotOwner::Upgrade);
    up.upgrade(0, 4096, [&](Up r) { up0_again = r.ok; });
    hp.replace(0, spare(), [&](Swap r) { swap0 = r.ok; });
    up.upgrade(1, 4096, [&](Up r) { up1 = r.ok; });
    ASSERT_TRUE(settled([&] { return up0 && up0_again && swap0 && up1; }));
    EXPECT_TRUE(*up0);
    EXPECT_FALSE(*up0_again);
    EXPECT_FALSE(*swap0);
    EXPECT_TRUE(*up1);
    EXPECT_EQ(up.upgradesCompleted(), 2u);
    EXPECT_EQ(up.upgradesRejected(), 1u);
    EXPECT_EQ(hp.replacementsRejected(), 1u);
    EXPECT_EQ(bed.ssd(0).firmwareActivations(), 1u);

    // A destructive replacement holds slot 0: an upgrade is refused.
    std::optional<bool> replaced, up_in_swap;
    hp.replace(0, spare(), [&](Swap r) { replaced = r.ok; });
    EXPECT_EQ(engine.slotOwner(0), core::SlotOwner::Replace);
    up.upgrade(0, 4096, [&](Up r) { up_in_swap = r.ok; });
    ASSERT_TRUE(settled([&] { return replaced && up_in_swap; }));
    EXPECT_TRUE(*replaced);
    EXPECT_FALSE(*up_in_swap);
    EXPECT_EQ(up.upgradesRejected(), 2u);

    // A lossless replacement holds slot 0 through its evacuation.
    std::optional<bool> lossless, up_in_evac;
    hp.replaceLossless(0, spare(), [&](Swap r) { lossless = r.ok; });
    bed.sim().runFor(sim::milliseconds(2));
    ASSERT_FALSE(bed.controller().migration().idle()); // evacuating
    EXPECT_EQ(engine.slotOwner(0), core::SlotOwner::Replace);
    up.upgrade(0, 4096, [&](Up r) { up_in_evac = r.ok; });
    ASSERT_TRUE(settled([&] { return lossless && up_in_evac; }));
    EXPECT_TRUE(*lossless);
    EXPECT_FALSE(*up_in_evac);
    EXPECT_EQ(up.upgradesRejected(), 3u);
    EXPECT_EQ(hp.losslessCompleted(), 1u);

    // A failed lossless replacement hands its slot back too: slot 1
    // now holds both chunks, and with slot 0 quiesced they have
    // nowhere to go.
    ns.quiesceAcquire(0);
    std::optional<bool> stuck;
    hp.replaceLossless(1, spare(), [&](Swap r) { stuck = r.ok; });
    ASSERT_TRUE(settled([&] { return stuck.has_value(); }));
    ns.quiesceRelease(0);
    EXPECT_FALSE(*stuck);
    EXPECT_FALSE(ns.quiesced(1));
    EXPECT_EQ(hp.replacementsCompleted(), 2u);
    EXPECT_EQ(hp.replacementsRejected(), 1u);
}

// Storing a slot's I/O context stops fetch on its tenants' functions.
// A tenant that fills its ring meanwhile must lose nothing: a ring of N
// entries holds N - 1 commands, and the rest wait in the driver.
TEST(IoContext, FullRingWhileFetchPausedLosesNothing)
{
    harness::TestbedConfig cfg = cfgOf(1);
    cfg.ioQueues = 1;
    cfg.queueDepth = 4;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    bool stored = false;
    bed.engine().storeIoContext(0, [&] { stored = true; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return stored; }));

    int done = 0;
    for (int i = 0; i < 4; ++i) {
        host::BlockRequest rd;
        rd.op = host::BlockRequest::Op::Read;
        rd.offset = static_cast<std::uint64_t>(i) * 4096;
        rd.len = 4096;
        rd.done = [&](bool ok) {
            EXPECT_TRUE(ok);
            ++done;
        };
        disk.submit(std::move(rd));
    }
    bed.sim().runFor(sim::milliseconds(1));
    EXPECT_EQ(done, 0);
    bed.engine().reloadIoContext(0);
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done == 4; }));
}

// A tenant striped over two slots stays paused until the I/O context
// of both slots is reloaded: reloading one slot's context must not
// resume fetch for a function another slot still holds stored.
TEST(IoContext, ReloadOfOneSlotKeepsOtherSlotsTenantsPaused)
{
    harness::BmStoreTestbed bed(cfgOf(2));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    core::NamespaceManager &ns = bed.controller().namespaces();
    std::uint64_t chunk_bytes = ns.chunkBlocks() * nvme::kBlockSize;
    std::optional<std::uint32_t> on_slot1;
    for (std::uint32_t c = 0; c < 2; ++c) {
        auto at = ns.chunkAt(0, 1, c);
        ASSERT_TRUE(at.has_value());
        if (at->slot == 1)
            on_slot1 = c;
    }
    ASSERT_TRUE(on_slot1.has_value()); // one chunk on each slot

    int stored = 0;
    bed.engine().storeIoContext(0, [&] { ++stored; });
    bed.engine().storeIoContext(1, [&] { ++stored; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return stored == 2; }));

    bed.engine().reloadIoContext(0);
    EXPECT_TRUE(bed.engine().function(0).fetchPaused());
    bool done = false;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = *on_slot1 * chunk_bytes;
    rd.len = 4096;
    rd.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        done = true;
    };
    disk.submit(std::move(rd));
    bed.sim().runFor(sim::milliseconds(1));
    EXPECT_FALSE(done);

    bed.engine().reloadIoContext(1);
    EXPECT_FALSE(bed.engine().function(0).fetchPaused());
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

TEST(IoMonitor, RatesTrackLoad)
{
    harness::BmStoreTestbed bed(cfgOf(1));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));

    workload::FioJobSpec spec = workload::fioRandR128();
    spec.runTime = sim::milliseconds(400);
    harness::runFio(bed.sim(), disk, spec);

    const core::IoMonitor::FnSample &s =
        bed.controller().monitor().current(0);
    EXPECT_GT(s.readOps, 0u);
    // Rate from the last 100 ms window: near the measured IOPS.
    EXPECT_GT(s.readIops, 400'000.0);
    EXPECT_LT(s.readIops, 750'000.0);
    EXPECT_GT(bed.controller().monitor().samplesTaken(), 3u);
}

TEST(HotUpgrade, OtherSsdTenantsUnaffected)
{
    // Two tenants on dedicated disks; upgrading disk 0's firmware
    // pauses tenant A but tenant B (disk 1) must keep running at full
    // speed throughout — the engine only stores context for functions
    // mapped onto the upgraded SSD.
    harness::BmStoreTestbed bed(cfgOf(2));
    host::NvmeDriver &a = bed.attachTenant(
        0, sim::gib(256), core::NamespaceManager::Policy::Dedicate,
        core::QosLimits(), nullptr, /*pin_slot=*/0);
    host::NvmeDriver &b = bed.attachTenant(
        1, sim::gib(256), core::NamespaceManager::Policy::Dedicate,
        core::QosLimits(), nullptr, /*pin_slot=*/1);

    workload::FioJobSpec spec = workload::fioRandR1();
    spec.rampTime = 0;
    spec.runTime = sim::seconds(12);
    auto *fa = bed.sim().make<workload::FioRunner>(bed.sim(), "fa", a,
                                                   spec);
    auto *fb = bed.sim().make<workload::FioRunner>(bed.sim(), "fb", b,
                                                   spec);
    fa->start();
    fb->start();

    bool upgraded = false;
    bed.sim().scheduleAt(sim::seconds(2), [&] {
        bed.controller().hotUpgrade().upgrade(
            0, 4096,
            [&](core::HotUpgradeManager::Report r) {
                EXPECT_TRUE(r.ok);
                upgraded = true;
            });
    });
    ASSERT_TRUE(test::runUntil(
        bed.sim(), [&] { return fa->finished() && fb->finished(); },
        sim::seconds(60)));
    ASSERT_TRUE(upgraded);

    // Tenant A lost ~6-9 s of its 12 s window; tenant B did not.
    EXPECT_EQ(fa->result().errors, 0u);
    EXPECT_EQ(fb->result().errors, 0u);
    EXPECT_LT(fa->result().completed, fb->result().completed * 3 / 4);
    // B's throughput is indistinguishable from an undisturbed run
    // (~50K IOPS for the whole window) and its worst-case latency
    // never saw the multi-second stall A did.
    EXPECT_GT(fb->result().iops, 45'000.0);
    EXPECT_LT(fb->result().latency.max(), sim::milliseconds(5));
    EXPECT_GT(fa->result().latency.max(), sim::seconds(5));
}

TEST(HotUpgrade, SurvivesFuzzedTenantLoad)
{
    // Seed-driven torture around a forced slot-0 upgrade: randomized
    // tenants, I/O mix and control traffic, but no fault injection —
    // so the paper's availability claim must hold exactly: zero
    // failed I/Os, and a pause bounded by the activation stall.
    fuzz::FuzzConfig cfg;
    cfg.seed = 11;
    cfg.horizon = sim::milliseconds(40);
    cfg.enableFaults = false;
    cfg.forceUpgrade = true;
    fuzz::Fuzzer fuzzer(cfg);
    fuzz::FuzzReport r = fuzzer.run();

    EXPECT_EQ(r.totalErrors, 0u);
    EXPECT_GE(r.upgrades, 1u);
    EXPECT_GT(r.verifiedBlocks, 0u);
    // The hiccup is visible (I/O latched across the multi-second
    // firmware activation) but bounded: well under the 9.5 s worst
    // case of Table IX and far inside the 30 s host NVMe timeout.
    EXPECT_GT(r.maxCompletionGap, sim::seconds(1));
    EXPECT_LE(r.maxCompletionGap, sim::milliseconds(9600));
}
