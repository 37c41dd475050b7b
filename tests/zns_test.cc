/**
 * @file
 * ZNS SSD extension tests: zone state machine, write-pointer
 * enforcement, zone append, management commands, open/active limits,
 * report zones — driven through real SQ/CQ rings like any device.
 */

#include <gtest/gtest.h>

#include "nvme/prp.hh"
#include "ssd/zns.hh"
#include "tests/test_util.hh"

using namespace bms;
using ssd::ZnsSsd;
using ssd::ZoneAction;
using ssd::ZoneState;
using ssd::ZnsStatus;

namespace {

/** Ring-level driver for one ZNS device over a FakeUpstream. */
struct Fixture
{
    sim::Simulator sim{71};
    test::FakeUpstream up{sim};
    ZnsSsd *dev;
    test::RingInitiator host{
        sim, up, [this](std::uint64_t offset, std::uint64_t value) {
            dev->mmioWrite(0, offset, value);
        }};

    /** Data buffer of every IO command, and its PRP list if needed. */
    std::uint64_t data_buf = 0x100000, prp_list = 0x50000;

    explicit Fixture(ssd::ZnsProfile profile = smallProfile(),
                     bool functional = false)
    {
        ZnsSsd::Config cfg;
        cfg.profile = profile;
        cfg.functionalData = functional;
        dev = sim.make<ZnsSsd>(sim, "zns", cfg);
        dev->attached(up);
        // Bring up admin queues + one IO queue pair directly.
        host.enable();
        host.createIoQueue(1, 256, 0x30000, 0x40000);
    }

    /** Small geometry so limits are easy to hit: 64 MiB zones. */
    static ssd::ZnsProfile
    smallProfile()
    {
        ssd::ZnsProfile p;
        p.media.capacityBytes = sim::gib(4);
        p.zoneBytes = sim::mib(64);
        p.maxOpenZones = 4;
        p.maxActiveZones = 6;
        return p;
    }

    /**
     * Submit one IO command and wait for its CQE. Its data buffer is
     * the contiguous region at data_buf, described by real PRPs.
     */
    nvme::Cqe
    io(const std::function<void(nvme::Sqe &)> &fill)
    {
        nvme::Sqe sqe;
        sqe.nsid = 1;
        fill(sqe);
        nvme::PrpPair prp =
            nvme::buildPrp(data_buf, sqe.dataBytes(), prp_list, up);
        sqe.prp1 = prp.prp1;
        sqe.prp2 = prp.prp2;
        return host.submit(1, sqe);
    }

    std::uint64_t zb() const { return dev->zoneBlocks(); }

    nvme::Cqe
    write(std::uint64_t lba, std::uint32_t blocks = 1)
    {
        return io([&](nvme::Sqe &s) {
            s.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Write);
            s.setSlba(lba);
            s.setNlb(blocks);
        });
    }

    nvme::Cqe
    zoneSend(std::uint64_t zone, ZoneAction action)
    {
        return io([&](nvme::Sqe &s) {
            s.opcode = ssd::kOpZoneMgmtSend;
            s.setSlba(zone * zb());
            s.cdw13 = static_cast<std::uint32_t>(action);
        });
    }
};

ZnsStatus
znsStatus(const nvme::Cqe &cqe)
{
    return static_cast<ZnsStatus>(cqe.status());
}

} // namespace

TEST(Zns, GeometryFromProfile)
{
    Fixture f;
    EXPECT_EQ(f.dev->zoneCount(), 64u); // 4 GiB / 64 MiB
    EXPECT_EQ(f.dev->zoneBlocks(), sim::mib(64) / 4096);
    EXPECT_EQ(f.dev->zoneState(0), ZoneState::Empty);
}

TEST(Zns, SequentialWritesAdvanceWritePointer)
{
    Fixture f;
    EXPECT_TRUE(f.write(0).ok());
    EXPECT_TRUE(f.write(1).ok());
    EXPECT_TRUE(f.write(2, 4).ok());
    EXPECT_EQ(f.dev->writePointer(0), 6u);
    EXPECT_EQ(f.dev->zoneState(0), ZoneState::ImplicitlyOpen);
    EXPECT_EQ(f.dev->openZones(), 1u);
}

TEST(Zns, NonSequentialWriteRejected)
{
    Fixture f;
    EXPECT_TRUE(f.write(0).ok());
    nvme::Cqe cqe = f.write(5); // hole: wp is 1
    EXPECT_FALSE(cqe.ok());
    EXPECT_EQ(znsStatus(cqe), ZnsStatus::ZoneInvalidWrite);
    // The zone is untouched by the failed write.
    EXPECT_EQ(f.dev->writePointer(0), 1u);
}

TEST(Zns, RewriteRejectedUntilReset)
{
    Fixture f;
    EXPECT_TRUE(f.write(0).ok());
    EXPECT_FALSE(f.write(0).ok()); // wp is now 1, not 0
    EXPECT_TRUE(f.zoneSend(0, ZoneAction::Reset).ok());
    EXPECT_EQ(f.dev->zoneState(0), ZoneState::Empty);
    EXPECT_TRUE(f.write(0).ok()); // fresh zone accepts LBA 0 again
}

TEST(Zns, ZoneAppendAssignsLba)
{
    Fixture f;
    auto append = [&](std::uint64_t zone) {
        return f.io([&](nvme::Sqe &s) {
            s.opcode = ssd::kOpZoneAppend;
            s.setSlba(zone * f.zb());
            s.setNlb(1);
        });
    };
    nvme::Cqe a = append(2);
    nvme::Cqe b = append(2);
    nvme::Cqe c = append(2);
    EXPECT_TRUE(a.ok());
    EXPECT_EQ(a.dw0, 2 * f.zb());
    EXPECT_EQ(b.dw0, 2 * f.zb() + 1);
    EXPECT_EQ(c.dw0, 2 * f.zb() + 2);
    EXPECT_EQ(f.dev->writePointer(2), 2 * f.zb() + 3);
}

TEST(Zns, FillingZoneMakesItFull)
{
    Fixture f;
    std::uint64_t blocks = f.zb();
    std::uint64_t lba = 0;
    // Fill zone 0 in 128-block stripes.
    while (lba < blocks) {
        auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(128, blocks - lba));
        ASSERT_TRUE(f.write(lba, chunk).ok());
        lba += chunk;
    }
    EXPECT_EQ(f.dev->zoneState(0), ZoneState::Full);
    EXPECT_EQ(f.dev->openZones(), 0u);
    EXPECT_EQ(f.dev->activeZones(), 0u);
    // Writing into a full zone fails.
    EXPECT_FALSE(f.write(0).ok());
}

TEST(Zns, OpenZoneLimitEnforced)
{
    Fixture f; // maxOpenZones = 4
    for (std::uint64_t z = 0; z < 4; ++z)
        ASSERT_TRUE(f.write(z * f.zb()).ok());
    EXPECT_EQ(f.dev->openZones(), 4u);
    nvme::Cqe cqe = f.write(4 * f.zb());
    EXPECT_FALSE(cqe.ok());
    EXPECT_EQ(znsStatus(cqe), ZnsStatus::TooManyOpenZones);
    // Closing one zone frees an open slot (it stays active).
    EXPECT_TRUE(f.zoneSend(0, ZoneAction::Close).ok());
    EXPECT_EQ(f.dev->zoneState(0), ZoneState::Closed);
    EXPECT_TRUE(f.write(4 * f.zb()).ok());
    EXPECT_EQ(f.dev->activeZones(), 5u);
}

TEST(Zns, ExplicitOpenAndFinish)
{
    Fixture f;
    EXPECT_TRUE(f.zoneSend(3, ZoneAction::Open).ok());
    EXPECT_EQ(f.dev->zoneState(3), ZoneState::ExplicitlyOpen);
    EXPECT_TRUE(f.zoneSend(3, ZoneAction::Finish).ok());
    EXPECT_EQ(f.dev->zoneState(3), ZoneState::Full);
    EXPECT_EQ(f.dev->openZones(), 0u);
}

TEST(Zns, ReadCannotCrossZoneBoundary)
{
    Fixture f;
    nvme::Cqe cqe = f.io([&](nvme::Sqe &s) {
        s.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
        s.setSlba(f.zb() - 1);
        s.setNlb(2); // spans zones 0 and 1
    });
    EXPECT_FALSE(cqe.ok());
    EXPECT_EQ(znsStatus(cqe), ZnsStatus::ZoneBoundaryError);
}

TEST(Zns, ReportZonesDescribesState)
{
    Fixture f;
    ASSERT_TRUE(f.write(0).ok());                       // zone 0 open
    ASSERT_TRUE(f.zoneSend(1, ZoneAction::Finish).ok()); // zone 1 full
    nvme::Cqe cqe = f.io([&](nvme::Sqe &s) {
        s.opcode = ssd::kOpZoneMgmtRecv;
        s.setSlba(0);
    });
    ASSERT_TRUE(cqe.ok());
    // Parse the first two 64-byte descriptors from the buffer.
    std::uint8_t buf[128];
    f.up.memory.read(f.data_buf, 128, buf);
    EXPECT_EQ(buf[1] >> 4,
              static_cast<int>(ZoneState::ImplicitlyOpen));
    std::uint64_t wp0;
    std::memcpy(&wp0, buf + 24, 8);
    EXPECT_EQ(wp0, 1u);
    EXPECT_EQ(buf[64 + 1] >> 4, static_cast<int>(ZoneState::Full));
}

TEST(Zns, ResetDropsData)
{
    Fixture f(Fixture::smallProfile(), /*functional=*/true);
    // Write a marker via the data path.
    std::vector<std::uint8_t> marker(4096, 0xEE);
    f.up.memory.write(f.data_buf, 4096, marker.data());
    ASSERT_TRUE(f.write(0).ok());
    // After a reset, reading the same LBA must return zeroes.
    ASSERT_TRUE(f.zoneSend(0, ZoneAction::Reset).ok());
    std::vector<std::uint8_t> junk(4096, 0xAB);
    f.up.memory.write(f.data_buf, 4096, junk.data());
    ASSERT_TRUE(f.io([&](nvme::Sqe &s) {
                     s.opcode =
                         static_cast<std::uint8_t>(nvme::IoOpcode::Read);
                     s.setSlba(0);
                     s.setNlb(1);
                 }).ok());
    std::vector<std::uint8_t> after(4096);
    f.up.memory.read(f.data_buf, 4096, after.data());
    for (std::uint8_t b : after)
        ASSERT_EQ(b, 0);
}

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

TEST(ZnsBehindBmStore, SequentialTenantWritesFlowThroughEngine)
{
    // §VI-A: the engine's chunk-aligned LBA mapping preserves zone
    // alignment (a 64 GiB chunk is a whole number of zones), so a
    // zone-aware tenant writing sequentially works unchanged through
    // BM-Store. One driver queue keeps submission order = zone order.
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ioQueues = 1;
    harness::BmStoreTestbed bed(cfg);

    ssd::ZnsSsd::Config zcfg; // 2 TB, 1 GiB zones
    auto *zns = bed.sim().make<ssd::ZnsSsd>(bed.sim(), "znsdev", zcfg);
    bool swapped = false;
    bed.controller().hotPlug().replace(
        0, *zns, [&](core::HotPlugManager::Report r) {
            EXPECT_TRUE(r.ok);
            swapped = true;
        });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return swapped; },
                               sim::seconds(20)));

    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::SeqWrite;
    spec.blockSize = 4096;
    spec.iodepth = 8;
    spec.numjobs = 1;
    // Region large enough that the run never wraps back to LBA 0 —
    // re-writing a zone without a reset is (correctly) rejected.
    spec.regionBytes = sim::gib(1);
    spec.rampTime = 0;
    spec.runTime = sim::milliseconds(100);
    spec.caseName = "zns-seq";
    workload::FioResult res = harness::runFio(bed.sim(), disk, spec);

    EXPECT_EQ(res.errors, 0u);
    EXPECT_GT(res.completed, 1000u);
    // The mapped zone's write pointer advanced on the device.
    std::uint64_t total_wp = 0;
    for (std::uint64_t z = 0; z < zns->zoneCount(); ++z)
        total_wp += zns->writePointer(z) - z * zns->zoneBlocks();
    EXPECT_GT(total_wp, 1000u);
}

// A ZNS disk hot-plugged into a slot and later replaced gives its
// zones' pages back when it is pulled.
TEST(ZnsBehindBmStore, ReplacedZnsDiskReleasesItsZonesPages)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    auto replaceSlot0 = [&](pcie::PcieDeviceIf &dev) {
        bool swapped = false;
        bed.controller().hotPlug().replace(
            0, dev, [&](core::HotPlugManager::Report r) {
                EXPECT_TRUE(r.ok);
                swapped = true;
            });
        ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return swapped; },
                                   sim::seconds(20)));
    };

    ssd::ZnsSsd::Config zcfg;
    zcfg.functionalData = true;
    auto *zns = bed.sim().make<ssd::ZnsSsd>(bed.sim(), "znsdev", zcfg);
    replaceSlot0(*zns);

    // Zone-ordered writes from the head of the tenant's first zone.
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    auto &mem = bed.host().memory();
    constexpr std::uint32_t kLen = 16 * 1024;
    std::uint64_t buf = mem.alloc(kLen);
    std::vector<std::uint8_t> data(kLen, 0x7E);
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
    ASSERT_EQ(zns->flash().allocatedPages(), kLen / 4096);

    ssd::SsdDevice::Config scfg;
    scfg.functionalData = true;
    replaceSlot0(*bed.sim().make<ssd::SsdDevice>(bed.sim(), "spare", scfg));
    EXPECT_EQ(zns->flash().allocatedPages(), 0u);
}
