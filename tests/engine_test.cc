/**
 * @file
 * BMS-Engine integration tests: the full Fig. 6 command path through
 * the SR-IOV layer, LBA mapping, QoS, global-PRP DMA routing and the
 * host adaptors — with real bytes moving end to end, including
 * chunk-straddling commands split across two back-end SSDs.
 */

#include <algorithm>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

harness::TestbedConfig
bmsConfig(int ssds, bool functional = true)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = ssds;
    cfg.ssd.functionalData = functional;
    return cfg;
}

/** Synchronous-style block I/O helper. */
bool
doIo(harness::BmStoreTestbed &bed, host::BlockDeviceIf &dev,
     host::BlockRequest::Op op, std::uint64_t offset, std::uint32_t len,
     std::uint64_t data_addr)
{
    bool done = false, ok = false;
    host::BlockRequest req;
    req.op = op;
    req.offset = offset;
    req.len = len;
    req.dataAddr = data_addr;
    req.done = [&](bool o) {
        ok = o;
        done = true;
    };
    dev.submit(std::move(req));
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
    return ok;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

} // namespace

TEST(BmsEngine, BringUpDiscoversBackendCapacity)
{
    harness::BmStoreTestbed bed(bmsConfig(2, false));
    EXPECT_TRUE(bed.engine().adaptor(0).ready());
    EXPECT_TRUE(bed.engine().adaptor(1).ready());
    EXPECT_EQ(bed.engine().adaptor(0).capacityBytes(),
              2000ull * 1000 * 1000 * 1000);
    // 29 full 64 GiB chunks fit a 2 TB disk.
    EXPECT_EQ(bed.controller().namespaces().totalChunks(0), 29u);
}

TEST(BmsEngine, TenantSeesExactNamespaceSize)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(100));
    EXPECT_EQ(disk.capacityBytes(), sim::gib(100));
}

TEST(BmsEngine, SingleChunkDataIntegrity)
{
    harness::BmStoreTestbed bed(bmsConfig(1));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    auto &mem = bed.host().memory();

    auto data = pattern(16384, 0x11);
    std::uint64_t wbuf = mem.alloc(16384);
    mem.write(wbuf, 16384, data.data());
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Write,
                     sim::mib(512), 16384, wbuf));

    std::uint64_t rbuf = mem.alloc(16384);
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Read,
                     sim::mib(512), 16384, rbuf));
    std::vector<std::uint8_t> got(16384);
    mem.read(rbuf, 16384, got.data());
    EXPECT_EQ(got, data);
}

TEST(BmsEngine, CrossChunkWriteSplitsAcrossSsds)
{
    harness::BmStoreTestbed bed(bmsConfig(2));
    // 256 GiB striped across the two disks: chunk 0 → SSD A,
    // chunk 1 → SSD B (round robin).
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(256));
    auto &mem = bed.host().memory();

    // 8 KiB write straddling the first 64 GiB chunk boundary.
    std::uint64_t boundary = sim::gib(64);
    auto data = pattern(8192, 0x42);
    std::uint64_t wbuf = mem.alloc(8192);
    mem.write(wbuf, 8192, data.data());
    std::uint64_t before = bed.engine().targetController().splitCommands();
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Write,
                     boundary - 4096, 8192, wbuf));
    EXPECT_EQ(bed.engine().targetController().splitCommands(),
              before + 1);

    // Read back through the front end.
    std::uint64_t rbuf = mem.alloc(8192);
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Read,
                     boundary - 4096, 8192, rbuf));
    std::vector<std::uint8_t> got(8192);
    mem.read(rbuf, 8192, got.data());
    EXPECT_EQ(got, data);

    // Verify the halves physically live on the two different SSDs at
    // the physical LBAs the mapping table assigned.
    core::NsBinding *b = bed.engine().findBinding(0, 1);
    ASSERT_NE(b, nullptr);
    std::uint64_t chunk_blocks = b->map.geometry().chunkBlocks;
    auto m0 = b->map.translate(chunk_blocks - 1); // last block chunk 0
    auto m1 = b->map.translate(chunk_blocks);     // first block chunk 1
    ASSERT_TRUE(m0 && m1);
    EXPECT_NE(m0->ssdId, m1->ssdId);

    std::vector<std::uint8_t> half(4096);
    bed.ssd(m0->ssdId)
        .flash()
        .read(m0->physLba * nvme::kBlockSize, 4096, half.data());
    EXPECT_TRUE(std::equal(half.begin(), half.end(), data.begin()));
    bed.ssd(m1->ssdId)
        .flash()
        .read(m1->physLba * nvme::kBlockSize, 4096, half.data());
    EXPECT_TRUE(
        std::equal(half.begin(), half.end(), data.begin() + 4096));
}

TEST(BmsEngine, PrpListRewrittenFor128k)
{
    harness::BmStoreTestbed bed(bmsConfig(1));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    auto &mem = bed.host().memory();

    auto data = pattern(128 * 1024, 0x77);
    std::uint64_t wbuf = mem.alloc(128 * 1024);
    mem.write(wbuf, 128 * 1024, data.data());
    std::uint64_t lists_before =
        bed.engine().targetController().rewrittenPrpLists();
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Write, 0,
                     128 * 1024, wbuf));
    EXPECT_GT(bed.engine().targetController().rewrittenPrpLists(),
              lists_before);

    std::uint64_t rbuf = mem.alloc(128 * 1024);
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Read, 0,
                     128 * 1024, rbuf));
    std::vector<std::uint8_t> got(128 * 1024);
    mem.read(rbuf, 128 * 1024, got.data());
    EXPECT_EQ(got, data);
}

namespace {

/** Closed loop of writes and reads, alternating, of @p len bytes each
 *  at depth @p depth; @p on_done runs after every completion. */
class IoLoop
{
  public:
    IoLoop(host::BlockDeviceIf &dev, std::uint64_t buf, std::uint32_t len,
           std::uint64_t depth, std::function<void()> on_done = {})
        : _dev(dev), _buf(buf), _len(len), _depth(depth),
          _onDone(std::move(on_done))
    {}

    /** Issue I/Os until @p total have been submitted in all. */
    void
    runTo(std::uint64_t total)
    {
        _limit = total;
        pump();
    }

    std::uint64_t completed() const { return _done; }

  private:
    void
    pump()
    {
        while (_issued < _limit && _issued - _done < _depth) {
            host::BlockRequest req;
            req.op = _issued % 2 ? host::BlockRequest::Op::Read
                                 : host::BlockRequest::Op::Write;
            req.offset = (_issued % 1024) * _len;
            req.len = _len;
            req.dataAddr = _buf + (_issued % _depth) * _len;
            req.done = [this](bool ok) {
                EXPECT_TRUE(ok);
                ++_done;
                if (_onDone)
                    _onDone();
                pump();
            };
            ++_issued;
            _dev.submit(std::move(req));
        }
    }

    host::BlockDeviceIf &_dev;
    std::uint64_t _buf;
    std::uint32_t _len;
    std::uint64_t _depth;
    std::function<void()> _onDone;
    std::uint64_t _issued = 0, _done = 0, _limit = 0;
};

} // namespace

// Each back-end leg of more than two pages holds a PRP-list slot in
// chip memory only until its completion, so chip memory stops growing
// once the slots cover the most legs ever in flight at once. Both
// samples leave the back-end SQ tail at the same slot (one leg per
// I/O, 1,025 ring entries): which SQ pages hold a frame depends on
// where the tail rests.
TEST(BmsEngine, PrpListSlotsBoundChipMemory)
{
    harness::BmStoreTestbed bed(bmsConfig(1, /*functional=*/false));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(16));
    constexpr std::uint32_t kLen = 32 * 1024; // 8 pages: a PRP list
    constexpr std::uint64_t kDepth = 8;
    IoLoop loop(disk, bed.host().memory().alloc(kLen * kDepth), kLen,
                kDepth);
    loop.runTo(1025);
    ASSERT_TRUE(test::runUntil(
        bed.sim(), [&] { return loop.completed() == 1025; }));
    std::size_t pages = bed.engine().chipMemory().allocatedPages();

    loop.runTo(10250);
    ASSERT_TRUE(test::runUntil(
        bed.sim(), [&] { return loop.completed() == 10250; }));
    EXPECT_GE(bed.engine().targetController().rewrittenPrpLists(), 10000u);
    EXPECT_EQ(bed.engine().chipMemory().allocatedPages(), pages);
}

// A tenant's SQ page keeps its frame only while a command written into
// it is outstanding. Over three laps of its 1,024-entry rings at QD2 a
// function holds its admin rings and identify page (3), its CQ (4) and
// at most the two SQ pages two commands can straddle.
TEST(BmsEngine, TenantRingsHoldNinePagesPerFunction)
{
    harness::TestbedConfig cfg = bmsConfig(1, /*functional=*/false);
    cfg.ioQueues = 1;
    harness::BmStoreTestbed bed(cfg);
    constexpr int kFunctions = 4;
    constexpr std::uint64_t kIos = 3 * 1024 + 100;
    sim::SparseMemory &mem = bed.host().memory().raw();
    std::size_t peak = 0;
    std::vector<std::unique_ptr<IoLoop>> loops;
    for (int f = 0; f < kFunctions; ++f) {
        host::NvmeDriver &disk =
            bed.attachTenant(static_cast<pcie::FunctionId>(f), sim::gib(1));
        EXPECT_EQ(disk.ioQueues(), 1);
        loops.push_back(std::make_unique<IoLoop>(
            disk, bed.host().memory().alloc(2 * 4096), 4096, 2,
            [&] { peak = std::max(peak, mem.allocatedPages()); }));
        loops.back()->runTo(kIos);
    }
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] {
        return std::all_of(loops.begin(), loops.end(), [](const auto &l) {
            return l->completed() == kIos;
        });
    }));
    EXPECT_LE(peak, 9u * kFunctions);
}

// The page store checks its own count when the simulation dies: a
// functional testbed that moved real bytes through host, chip and
// flash memory must hand back every page it took, or ~PageStore
// panics (LeakSanitizer cannot see a page a lost reference pins).
TEST(BmsEngine, TeardownReturnsEveryPage)
{
    auto bed = std::make_unique<harness::BmStoreTestbed>(bmsConfig(2));
    host::NvmeDriver &disk = bed->attachTenant(0, sim::gib(128));
    auto &mem = bed->host().memory();
    auto data = pattern(128 * 1024, 0x5c);
    std::uint64_t buf = mem.alloc(128 * 1024);
    mem.write(buf, 128 * 1024, data.data());
    // Straddle the 64 GiB chunk boundary: a split across both SSDs.
    std::uint64_t off = sim::gib(64) - 64 * 1024;
    ASSERT_TRUE(doIo(*bed, disk, host::BlockRequest::Op::Write, off,
                     128 * 1024, buf));
    std::uint64_t rbuf = mem.alloc(128 * 1024);
    ASSERT_TRUE(doIo(*bed, disk, host::BlockRequest::Op::Read, off,
                     128 * 1024, rbuf));
    std::vector<std::uint8_t> got(128 * 1024);
    mem.read(rbuf, 128 * 1024, got.data());
    EXPECT_EQ(got, data);
    EXPECT_GT(bed->sim().pages().livePages(), 0u);
    bed.reset();
}

TEST(BmsEngine, OutOfRangeRejected)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(100));
    EXPECT_FALSE(doIo(bed, disk, host::BlockRequest::Op::Read,
                      sim::gib(100), 4096, 0));
    EXPECT_GT(bed.engine().targetController().errorCompletions(), 0u);
}

TEST(BmsEngine, UnboundNamespaceRejected)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(100));
    // Quiesce, then unbind the namespace behind the driver's back
    // (operator error case): subsequent I/O must fail cleanly.
    bed.engine().unbind(0, 1);
    EXPECT_FALSE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, 4096, 0));
}

// Migration cutover seen from the engine: with source and destination
// chunks byte-identical, flipping the live LbaMapTable entry while a
// tenant read is in flight is invisible to the tenant, and writes
// issued after the flip land physically on the new SSD.
TEST(BmsEngine, LiveRemapIsTransparentToInFlightIo)
{
    harness::BmStoreTestbed bed(bmsConfig(2));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    auto &mem = bed.host().memory();

    constexpr std::uint32_t kLen = 64 * 1024;
    auto data = pattern(kLen, 0x5A);
    std::uint64_t wbuf = mem.alloc(kLen);
    mem.write(wbuf, kLen, data.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, kLen, wbuf));

    core::NsBinding *b = bed.engine().findBinding(0, 1);
    ASSERT_NE(b, nullptr);
    auto src = b->map.translate(0);
    ASSERT_TRUE(src.has_value());
    std::uint64_t chunk_blocks = b->map.geometry().chunkBlocks;

    // Copy the written prefix to a free chunk on the other SSD (the
    // copy MigrationManager performs through the data path).
    int dst_ssd = src->ssdId == 0 ? 1 : 0;
    std::uint64_t dst_base = 1; // chunk 0 of each SSD is in use
    std::vector<std::uint8_t> seg(kLen);
    bed.ssd(src->ssdId)
        .flash()
        .read(src->physLba * nvme::kBlockSize, kLen, seg.data());
    bed.ssd(dst_ssd).flash().write(
        dst_base * chunk_blocks * nvme::kBlockSize, kLen, seg.data());

    // Flip the mapping while a tenant read is in flight.
    bool done = false, ok = false;
    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Read;
    req.offset = 0;
    req.len = kLen;
    req.dataAddr = mem.alloc(kLen);
    std::uint64_t rbuf = req.dataAddr;
    req.done = [&](bool o) {
        ok = o;
        done = true;
    };
    disk.submit(std::move(req));
    ASSERT_TRUE(b->map.setEntry(0, 0, dst_base,
                                static_cast<std::uint8_t>(dst_ssd)));
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
    EXPECT_TRUE(ok);
    std::vector<std::uint8_t> got(kLen);
    mem.read(rbuf, kLen, got.data());
    EXPECT_EQ(got, data);

    // Post-flip writes route to the destination SSD's flash...
    auto data2 = pattern(4096, 0xC3);
    mem.write(wbuf, 4096, data2.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, 4096, wbuf));
    std::vector<std::uint8_t> phys(4096);
    bed.ssd(dst_ssd).flash().read(
        dst_base * chunk_blocks * nvme::kBlockSize, 4096, phys.data());
    EXPECT_EQ(phys, data2);
    // ...while the abandoned source copy keeps its stale bytes.
    bed.ssd(src->ssdId)
        .flash()
        .read(src->physLba * nvme::kBlockSize, 4096, phys.data());
    EXPECT_TRUE(std::equal(phys.begin(), phys.end(), data.begin()));

    // Reads keep verifying end to end after cutover.
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, 4096, rbuf));
    std::vector<std::uint8_t> got2(4096);
    mem.read(rbuf, 4096, got2.data());
    EXPECT_EQ(got2, data2);
}

// A bounds-rejected remap (a buggy cutover computing chunk base 64 or
// SSD 4) must leave tenant I/O serving from the original placement.
TEST(BmsEngine, RejectedRemapKeepsServingFromOldPlacement)
{
    harness::BmStoreTestbed bed(bmsConfig(1));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));
    auto &mem = bed.host().memory();

    auto data = pattern(4096, 0x9D);
    std::uint64_t buf = mem.alloc(4096);
    mem.write(buf, 4096, data.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, 4096, buf));

    core::NsBinding *b = bed.engine().findBinding(0, 1);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->map.setEntry(0, 0, 64, 0)); // 6-bit base overflow
    EXPECT_FALSE(b->map.setEntry(0, 0, 0, 4));  // 2-bit ssd overflow

    std::uint64_t rbuf = mem.alloc(4096);
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, 4096, rbuf));
    std::vector<std::uint8_t> got(4096);
    mem.read(rbuf, 4096, got.data());
    EXPECT_EQ(got, data);
}

TEST(BmsEngine, TenantsAreIsolated)
{
    harness::BmStoreTestbed bed(bmsConfig(2));
    host::NvmeDriver &a = bed.attachTenant(4, sim::gib(128));
    host::NvmeDriver &b = bed.attachTenant(5, sim::gib(128));
    auto &mem = bed.host().memory();

    auto da = pattern(4096, 0xA0);
    auto db = pattern(4096, 0xB0);
    std::uint64_t ba = mem.alloc(4096), bb = mem.alloc(4096);
    mem.write(ba, 4096, da.data());
    mem.write(bb, 4096, db.data());

    // Same tenant-visible LBA, different namespaces.
    ASSERT_TRUE(doIo(bed, a, host::BlockRequest::Op::Write, 0, 4096, ba));
    ASSERT_TRUE(doIo(bed, b, host::BlockRequest::Op::Write, 0, 4096, bb));

    std::uint64_t ra = mem.alloc(4096), rb = mem.alloc(4096);
    ASSERT_TRUE(doIo(bed, a, host::BlockRequest::Op::Read, 0, 4096, ra));
    ASSERT_TRUE(doIo(bed, b, host::BlockRequest::Op::Read, 0, 4096, rb));
    std::vector<std::uint8_t> ga(4096), gb(4096);
    mem.read(ra, 4096, ga.data());
    mem.read(rb, 4096, gb.data());
    EXPECT_EQ(ga, da);
    EXPECT_EQ(gb, db);
}

TEST(BmsEngine, QosCapsTenantBandwidth)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    core::QosLimits lim;
    lim.mbPerSecLimit = 200.0;
    host::NvmeDriver &disk = bed.attachTenant(
        0, sim::gib(128), core::NamespaceManager::Policy::RoundRobin,
        lim);

    workload::FioJobSpec spec = workload::fioSeqR256();
    spec.runTime = sim::milliseconds(300);
    workload::FioResult res = harness::runFio(bed.sim(), disk, spec);
    EXPECT_NEAR(res.mbPerSec, 200.0, 25.0);
    EXPECT_GT(bed.engine().qos().bufferedCount(), 0u);
}

TEST(BmsEngine, QosBufferedReadOutlivesItsNamespace)
{
    // 1,000 IOPS admits a burst of 10 commands; the other 22 reads
    // wait in the QoS command buffer when the namespace is destroyed.
    // Each must then complete with an error, at once: it used to be
    // forwarded through the freed binding, onto chunks already back in
    // the pool, and later released at the dead namespace's rate.
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    core::QosLimits lim;
    lim.iopsLimit = 1000.0;
    host::NvmeDriver &disk = bed.attachTenant(
        0, sim::gib(64), core::NamespaceManager::Policy::RoundRobin, lim);
    std::uint64_t buf = bed.host().memory().alloc(32 * 4096);
    int ok = 0, failed = 0;
    sim::Tick last_done = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        host::BlockRequest req;
        req.op = host::BlockRequest::Op::Read;
        req.offset = i * 4096;
        req.len = 4096;
        req.dataAddr = buf + i * 4096;
        req.done = [&](bool o) {
            ++(o ? ok : failed);
            last_done = bed.sim().now();
        };
        disk.submit(std::move(req));
    }
    bed.sim().runFor(sim::microseconds(200));
    const std::uint32_t key = core::QosModule::key(0, 1);
    ASSERT_EQ(bed.engine().qos().bufferDepth(key), 22u);
    ASSERT_TRUE(bed.controller().namespaces().destroy(0, 1));
    const sim::Tick destroyed = bed.sim().now();
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return ok + failed == 32; }));
    EXPECT_EQ(ok, 10);
    EXPECT_EQ(failed, 22);
    EXPECT_EQ(bed.engine().qos().bufferDepth(key), 0u);
    // The namespace's QoS state leaves with it: the buffered reads are
    // released at once instead of trickling out at its old rate.
    EXPECT_LE(last_done - destroyed, sim::microseconds(100));
    EXPECT_EQ(bed.engine().qos().limitsFor(key), nullptr);
}

TEST(BmsEngine, FlushFansOutToMappedSsds)
{
    harness::BmStoreTestbed bed(bmsConfig(2, false));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(256));
    std::uint64_t before0 = bed.engine().adaptor(0).completedIos();
    std::uint64_t before1 = bed.engine().adaptor(1).completedIos();
    EXPECT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Flush, 0, 0, 0));
    EXPECT_EQ(bed.engine().adaptor(0).completedIos(), before0 + 1);
    EXPECT_EQ(bed.engine().adaptor(1).completedIos(), before1 + 1);
}

TEST(BmsEngine, CountersTrackRoutedTraffic)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    workload::FioJobSpec spec = workload::fioRandR1();
    spec.runTime = sim::milliseconds(50);
    workload::FioResult res = harness::runFio(bed.sim(), disk, spec);
    EXPECT_GT(res.completed, 0u);

    // Data was routed toward the host (global PRP path) and commands
    // were fetched from chip memory.
    EXPECT_GT(bed.engine().adaptor(0).routedToHostBytes(), 0u);
    EXPECT_GT(bed.engine().adaptor(0).chipAccessBytes(), 0u);
    EXPECT_GT(bed.engine().targetController().forwardedCommands(), 0u);
    // Front-end accounting visible to the I/O monitor.
    EXPECT_GT(bed.engine().function(0).readOps(), 0u);
}

TEST(BmsEngine, VfCountMatchesPaper)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    EXPECT_EQ(bed.engine().functionCount(), 128);
    EXPECT_TRUE(bed.engine().function(0).isPf());
    EXPECT_TRUE(bed.engine().function(3).isPf());
    EXPECT_FALSE(bed.engine().function(4).isPf());
    EXPECT_FALSE(bed.engine().function(127).isPf());
}

TEST(BmsEngine, NamespaceManagerReclaimsChunks)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    auto &ns = bed.controller().namespaces();
    std::uint64_t free_before = ns.freeChunks(0);
    auto nsid = ns.createAndAttach(7, sim::gib(128));
    ASSERT_TRUE(nsid.has_value());
    EXPECT_EQ(ns.freeChunks(0), free_before - 2);
    EXPECT_TRUE(ns.destroy(7, *nsid));
    EXPECT_EQ(ns.freeChunks(0), free_before);
}

TEST(BmsEngine, CapacityExhaustionFailsCleanly)
{
    harness::BmStoreTestbed bed(bmsConfig(1, false));
    auto &ns = bed.controller().namespaces();
    // 29 chunks total; a 2 TiB request (32 chunks) cannot fit.
    EXPECT_FALSE(ns.createAndAttach(9, sim::gib(2048)).has_value());
    // But a fitting one still can afterwards.
    EXPECT_TRUE(ns.createAndAttach(9, sim::gib(64)).has_value());
}

/** Property sweep: across every Table IV case, the engine's overhead
 *  stays a small constant — latency delta within a few microseconds
 *  and throughput within a few percent of native. */
class EngineOverheadProperty
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EngineOverheadProperty, ConstantSmallOverhead)
{
    workload::FioJobSpec spec;
    for (const auto &s : workload::fioTableIv())
        if (s.caseName == GetParam())
            spec = s;
    spec.runTime = spec.blockSize > 4096 ? sim::milliseconds(400)
                                         : sim::milliseconds(120);

    harness::TestbedConfig ncfg;
    ncfg.ssdCount = 1;
    harness::NativeTestbed native(ncfg);
    workload::FioResult nat =
        harness::runFio(native.sim(), native.driver(0), spec);

    harness::BmStoreTestbed bms(bmsConfig(1, false));
    host::NvmeDriver &disk = bms.attachTenant(0, sim::gib(1536));
    workload::FioResult eng = harness::runFio(bms.sim(), disk, spec);

    double delta_us = eng.avgLatencyUs() - nat.avgLatencyUs();
    EXPECT_GE(delta_us, -2.0) << GetParam();
    EXPECT_LE(delta_us, 6.0) << GetParam();
    EXPECT_GE(eng.iops, nat.iops * 0.78) << GetParam();
    EXPECT_LE(eng.iops, nat.iops * 1.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TableIv, EngineOverheadProperty,
                         ::testing::Values("rand-r-1", "rand-r-128",
                                           "rand-w-1", "rand-w-16",
                                           "seq-r-256", "seq-w-256"));
