/**
 * @file
 * Live chunk-migration tests: the MigrationManager must move chunks
 * between back-end SSDs with zero data loss while tenant I/O flows,
 * pace its copy through the QoS module, drain SSDs for lossless
 * hot-plug, rebalance occupancy, and reject malformed requests —
 * all visible through the out-of-band console verbs.
 */

#include <gtest/gtest.h>

#include <optional>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"

using namespace bms;

namespace {

/** Small chunks so a full-chunk copy fits a short simulated run. */
harness::TestbedConfig
migConfig(int ssds, bool functional, std::uint64_t chunk_bytes = sim::mib(8))
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = ssds;
    cfg.ssd.functionalData = functional;
    cfg.chunkBytes = chunk_bytes;
    return cfg;
}

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

// The core promise: a chunk moves to another SSD, a tenant write that
// lands mid-copy is not lost, and reads after cutover return every
// byte — old data, the mid-copy write, and the untouched tail.
TEST(Migration, MovesChunkAndPreservesDataUnderLiveWrites)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/true));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(16));
    auto &mem = bed.host().memory();
    auto &ns = bed.controller().namespaces();

    // Chunk 0 → slot 0, chunk 1 → slot 1 (round robin).
    auto before = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(before.has_value());
    EXPECT_EQ(before->slot, 0);

    constexpr std::uint32_t kLen = 64 * 1024;
    auto head = pattern(kLen, 0x10);
    auto tail = pattern(kLen, 0x20);
    std::uint64_t buf = mem.alloc(kLen);
    mem.write(buf, kLen, head.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, kLen, buf));
    mem.write(buf, kLen, tail.data());
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Write,
                     sim::mib(8) - kLen, kLen, buf));

    core::MigrationManager &mig = bed.controller().migration();
    bool done = false;
    core::MigrationManager::Report rep;
    ASSERT_TRUE(mig.migrate(0, 1, 0, core::MigrationManager::kAutoSlot,
                            [&](core::MigrationManager::Report r) {
                                rep = r;
                                done = true;
                            }));
    EXPECT_FALSE(mig.idle());

    // While the copy is in flight, overwrite one page of the chunk —
    // the gate must mirror it or re-queue the segment dirty.
    auto live = pattern(4096, 0x30);
    std::uint64_t lbuf = mem.alloc(4096);
    mem.write(lbuf, 4096, live.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 4096, 4096, lbuf));

    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return done; }, sim::seconds(5)));
    EXPECT_TRUE(rep.ok);
    EXPECT_EQ(rep.srcSlot, 0);
    EXPECT_EQ(rep.dstSlot, 1);
    EXPECT_GE(rep.bytesCopied, sim::mib(8));
    EXPECT_EQ(mig.completed(), 1u);

    // Bookkeeping: the chunk record moved and the source chunk is
    // back in slot 0's free pool.
    auto after = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->slot, 1);
    auto occ = ns.occupancy();
    ASSERT_EQ(occ.size(), 2u);
    EXPECT_EQ(occ[0].used, 0u);
    EXPECT_EQ(occ[1].used, 2u);
    // Engine-side state fully retired.
    EXPECT_FALSE(bed.engine().migrationGate().migrationActive());
    EXPECT_EQ(bed.engine().migrationGate().heldCount(), 0u);

    // Every byte survives: head (minus the live overwrite), the
    // mid-copy write, and the tail at the end of the chunk.
    std::uint64_t rbuf = mem.alloc(kLen);
    std::vector<std::uint8_t> got(kLen);
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, kLen, rbuf));
    mem.read(rbuf, kLen, got.data());
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + 4096, head.begin()));
    EXPECT_TRUE(std::equal(got.begin() + 4096, got.begin() + 8192,
                           live.begin()));
    EXPECT_TRUE(std::equal(got.begin() + 8192, got.end(),
                           head.begin() + 8192));
    ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Read,
                     sim::mib(8) - kLen, kLen, rbuf));
    mem.read(rbuf, kLen, got.data());
    EXPECT_EQ(got, tail);
}

// A chunk nobody wrote moves as absent pages: the copy stores nothing
// on the destination, and the chunk still reads back as zeroes.
TEST(Migration, NeverWrittenChunkStaysAbsent)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/true));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(16));
    core::MigrationManager &mig = bed.controller().migration();
    bool done = false;
    core::MigrationManager::Report rep;
    ASSERT_TRUE(mig.migrate(0, 1, 0, core::MigrationManager::kAutoSlot,
                            [&](core::MigrationManager::Report r) {
                                rep = r;
                                done = true;
                            }));
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return done; }, sim::seconds(5)));
    ASSERT_TRUE(rep.ok);
    EXPECT_GE(rep.bytesCopied, sim::mib(8));
    EXPECT_EQ(bed.ssd(rep.dstSlot).flash().allocatedPages(), 0u);

    constexpr std::uint32_t kLen = 64 * 1024;
    auto &mem = bed.host().memory();
    std::uint64_t rbuf = mem.alloc(kLen);
    auto junk = pattern(kLen, 0x44);
    mem.write(rbuf, kLen, junk.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, kLen, rbuf));
    std::vector<std::uint8_t> got(kLen);
    mem.read(rbuf, kLen, got.data());
    EXPECT_EQ(got, std::vector<std::uint8_t>(kLen, 0));
}

// Copy traffic is paced through the QoS module: an 8x lower budget
// must stretch the copy phase by roughly that factor.
TEST(Migration, QosBudgetPacesTheCopy)
{
    harness::BmStoreTestbed bed(
        migConfig(2, /*functional=*/false, sim::mib(32)));
    bed.attachTenant(0, sim::mib(64)); // chunk 0 → slot 0, 1 → slot 1
    core::MigrationManager &mig = bed.controller().migration();

    auto timedMigrate = [&](std::uint32_t chunk) {
        bool done = false;
        core::MigrationManager::Report rep;
        EXPECT_TRUE(mig.migrate(0, 1, chunk,
                                core::MigrationManager::kAutoSlot,
                                [&](core::MigrationManager::Report r) {
                                    rep = r;
                                    done = true;
                                }));
        EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; },
                                   sim::seconds(20)));
        EXPECT_TRUE(rep.ok);
        return rep.elapsed;
    };

    mig.setBudget(800.0);
    sim::Tick fast = timedMigrate(0);
    mig.setBudget(100.0);
    sim::Tick slow = timedMigrate(1);

    // 32 MiB at 800 vs 100 MB/s: nominal 8x; allow generous slack for
    // fixed per-segment costs.
    EXPECT_GT(slow, fast * 4);
}

// evacuate() drains every chunk off a slot onto the others, returns
// the freed chunks to the pool, and releases its quiesce.
TEST(Migration, EvacuateDrainsSlot)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/false));
    bed.attachTenant(0, sim::mib(32)); // 4 chunks, 2 per slot
    auto &ns = bed.controller().namespaces();
    core::MigrationManager &mig = bed.controller().migration();

    bool done = false;
    core::MigrationManager::EvacReport rep;
    mig.evacuate(0, [&](core::MigrationManager::EvacReport r) {
        rep = r;
        done = true;
    });
    // The slot refuses new allocations while draining.
    EXPECT_TRUE(ns.quiesced(0));
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return done; }, sim::seconds(10)));
    EXPECT_TRUE(rep.ok);
    EXPECT_EQ(rep.moved, 2u);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_GT(rep.elapsed, 0u);

    auto occ = ns.occupancy();
    EXPECT_EQ(occ[0].used, 0u);
    EXPECT_EQ(occ[1].used, 4u);
    EXPECT_EQ(ns.freeChunks(0), ns.totalChunks(0));
    EXPECT_FALSE(ns.quiesced(0)); // default: quiesce released
    EXPECT_EQ(mig.evacuations(), 1u);

    // Out-of-range slot: immediate clean failure.
    bool bad_done = false;
    mig.evacuate(9, [&](core::MigrationManager::EvacReport r) {
        EXPECT_FALSE(r.ok);
        bad_done = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return bad_done; }));
}

// With a single SSD there is nowhere to move data: the evacuation
// fails cleanly, nothing is lost, and the quiesce is released.
TEST(Migration, EvacuateWithoutDestinationFailsCleanly)
{
    harness::BmStoreTestbed bed(migConfig(1, /*functional=*/false));
    bed.attachTenant(0, sim::mib(16)); // 2 chunks, both slot 0
    auto &ns = bed.controller().namespaces();
    core::MigrationManager &mig = bed.controller().migration();

    bool done = false;
    core::MigrationManager::EvacReport rep;
    mig.evacuate(0, [&](core::MigrationManager::EvacReport r) {
        rep = r;
        done = true;
    });
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return done; }, sim::seconds(5)));
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.moved, 0u);
    EXPECT_EQ(rep.failed, 2u);
    EXPECT_EQ(mig.rejected(), 2u);
    EXPECT_EQ(mig.started(), 0u); // never reached the copy phase

    auto occ = ns.occupancy();
    EXPECT_EQ(occ[0].used, 2u); // chunks still in place
    EXPECT_FALSE(ns.quiesced(0));
}

// rebalanceOnce() moves chunks from the fullest SSD to the emptiest
// until the occupancy spread is one chunk or less.
TEST(Migration, RebalanceEvensOutOccupancy)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/false));
    // Pack policy: all 4 chunks land on slot 0.
    bed.attachTenant(0, sim::mib(32),
                     core::NamespaceManager::Policy::Pack);
    auto &ns = bed.controller().namespaces();
    core::MigrationManager &mig = bed.controller().migration();
    ASSERT_EQ(ns.occupancy()[0].used, 4u);
    ASSERT_EQ(ns.occupancy()[1].used, 0u);

    int moves = 0;
    for (;;) {
        bool done = false;
        bool accepted =
            mig.rebalanceOnce([&](core::MigrationManager::Report r) {
                EXPECT_TRUE(r.ok);
                done = true;
            });
        if (!accepted)
            break;
        ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done; },
                                   sim::seconds(10)));
        ++moves;
        ASSERT_LE(moves, 4);
    }
    EXPECT_EQ(moves, 2);
    auto occ = ns.occupancy();
    EXPECT_EQ(occ[0].used, 2u);
    EXPECT_EQ(occ[1].used, 2u);
}

// A namespace under migration cannot be destroyed out from under the
// copy; once the migration finishes the destroy goes through.
TEST(Migration, DestroyRefusedWhileMigrating)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/false));
    bed.attachTenant(0, sim::mib(8)); // 1 chunk on slot 0
    auto &ns = bed.controller().namespaces();
    core::MigrationManager &mig = bed.controller().migration();

    bool done = false;
    ASSERT_TRUE(mig.migrate(0, 1, 0, core::MigrationManager::kAutoSlot,
                            [&](core::MigrationManager::Report r) {
                                EXPECT_TRUE(r.ok);
                                done = true;
                            }));
    // The migration holds the namespace locked from the moment it
    // starts copying.
    EXPECT_TRUE(ns.locked(0, 1));
    EXPECT_FALSE(ns.destroy(0, 1));
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return done; }, sim::seconds(5)));
    EXPECT_FALSE(ns.locked(0, 1));
    EXPECT_TRUE(ns.destroy(0, 1));
}

// Malformed requests: bad destination slots are refused synchronously,
// unknown namespaces/chunks and src==dst are rejected via the
// callback without ever opening a migration.
TEST(Migration, MalformedRequestsRejected)
{
    harness::BmStoreTestbed bed(migConfig(1, /*functional=*/false));
    bed.attachTenant(0, sim::mib(8)); // 1 chunk on slot 0
    core::MigrationManager &mig = bed.controller().migration();

    // Destination slot out of range: not even queued.
    EXPECT_FALSE(mig.migrate(0, 1, 0, 5, nullptr));

    int failures = 0;
    auto expectFail = [&](core::MigrationManager::Report r) {
        EXPECT_FALSE(r.ok);
        ++failures;
    };
    mig.migrate(0, /*nsid=*/99, 0, core::MigrationManager::kAutoSlot,
                expectFail); // unknown namespace
    mig.migrate(0, 1, /*chunk_index=*/99,
                core::MigrationManager::kAutoSlot,
                expectFail); // chunk index out of range
    mig.migrate(0, 1, 0, /*dst_slot=*/0,
                expectFail); // destination == source
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return failures == 3; },
                               sim::seconds(2)));
    EXPECT_EQ(mig.rejected(), 3u);
    EXPECT_EQ(mig.started(), 0u);
    EXPECT_TRUE(mig.idle());
}

// Lossless hot-plug: evacuate-then-swap keeps every tenant byte,
// unlike the destructive replace() which hands back a blank disk.
TEST(Migration, ReplaceLosslessKeepsTenantData)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/true));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(32));
    auto &mem = bed.host().memory();

    // Stamp the head of each of the 4 chunks (slots 0,1,0,1).
    constexpr std::uint32_t kLen = 16 * 1024;
    std::uint64_t buf = mem.alloc(kLen);
    for (std::uint32_t c = 0; c < 4; ++c) {
        auto data = pattern(kLen, static_cast<std::uint8_t>(0x40 + c));
        mem.write(buf, kLen, data.data());
        ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Write,
                         c * sim::mib(8), kLen, buf));
    }

    ssd::SsdDevice::Config scfg;
    scfg.functionalData = true;
    auto *spare =
        bed.sim().make<ssd::SsdDevice>(bed.sim(), "spare", scfg);
    bool done = false;
    core::HotPlugManager::Report rep;
    bed.controller().hotPlug().replaceLossless(
        0, *spare, [&](core::HotPlugManager::Report r) {
            rep = r;
            done = true;
        });
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return done; }, sim::seconds(20)));
    EXPECT_TRUE(rep.ok);
    EXPECT_EQ(rep.evacuatedChunks, 2u);
    EXPECT_GT(rep.evacTime, 0u);
    EXPECT_EQ(bed.controller().hotPlug().losslessCompleted(), 1u);
    EXPECT_FALSE(bed.controller().namespaces().quiesced(0));
    // The pulled disk gave its flash back; the evacuated pages live on
    // at their destination.
    EXPECT_EQ(bed.ssd(0).flash().allocatedPages(), 0u);

    // Zero data loss: all four stamps read back intact.
    std::uint64_t rbuf = mem.alloc(kLen);
    std::vector<std::uint8_t> got(kLen);
    for (std::uint32_t c = 0; c < 4; ++c) {
        auto want = pattern(kLen, static_cast<std::uint8_t>(0x40 + c));
        ASSERT_TRUE(doIo(bed, disk, host::BlockRequest::Op::Read,
                         c * sim::mib(8), kLen, rbuf));
        mem.read(rbuf, kLen, got.data());
        EXPECT_EQ(got, want) << "chunk " << c;
    }
}

// A chunk migrating *into* a slot when the slot's lossless replacement
// starts lands after the evacuation listed the slot's chunks. The
// evacuation must not call the slot empty: the old disk stays in, and
// the tenant's bytes with it.
TEST(Migration, ReplaceLosslessKeepsDiskWhenAChunkLandsMidEvacuation)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/true));
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(16));
    auto &mem = bed.host().memory();
    auto &ns = bed.controller().namespaces();
    ASSERT_EQ(ns.chunkAt(0, 1, 0).value().slot, 0);

    constexpr std::uint32_t kLen = 64 * 1024;
    auto data = pattern(kLen, 0x50);
    std::uint64_t buf = mem.alloc(kLen);
    mem.write(buf, kLen, data.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, kLen, buf));

    std::optional<bool> moved;
    ASSERT_TRUE(bed.controller().migration().migrate(
        0, 1, 0, /*dst_slot=*/1,
        [&](core::MigrationManager::Report r) { moved = r.ok; }));
    bed.sim().runFor(sim::milliseconds(2));
    ASSERT_FALSE(moved.has_value()); // still copying into slot 1

    auto *spare =
        bed.sim().make<ssd::SsdDevice>(bed.sim(), "spare", bed.config().ssd);
    std::optional<core::HotPlugManager::Report> rep;
    bed.controller().hotPlug().replaceLossless(
        1, *spare, [&](core::HotPlugManager::Report r) { rep = r; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return rep.has_value(); },
                               sim::seconds(20)));
    EXPECT_TRUE(moved.value_or(false));
    EXPECT_FALSE(rep->ok);
    EXPECT_EQ(rep->evacuatedChunks, 1u); // chunk 1; chunk 0 came later
    EXPECT_EQ(bed.controller().hotPlug().losslessCompleted(), 0u);
    EXPECT_EQ(ns.chunkAt(0, 1, 0).value().slot, 1);
    EXPECT_FALSE(ns.quiesced(1));
    EXPECT_EQ(bed.engine().slotOwner(1), core::SlotOwner::None);

    std::uint64_t rbuf = mem.alloc(kLen);
    std::vector<std::uint8_t> got(kLen);
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, kLen, rbuf));
    mem.read(rbuf, kLen, got.data());
    EXPECT_EQ(got, data);
}

namespace {

/**
 * Pull the disk of @p pulled (0: the copy's source, 1: its
 * destination) with a destructive replacement while a 32 MiB chunk is
 * mid-copy from slot 0 to slot 1. The copy's next leg finds no disk:
 * the migration aborts and gives its destination chunk back, and the
 * replacement completes.
 */
void
expectPullAbortsCopy(int pulled)
{
    harness::BmStoreTestbed bed(
        migConfig(2, /*functional=*/false, sim::mib(32)));
    bed.attachTenant(0, sim::mib(64)); // chunk 0 on slot 0, 1 on slot 1
    auto &ns = bed.controller().namespaces();
    core::MigrationManager &mig = bed.controller().migration();

    std::optional<core::MigrationManager::Report> moved;
    ASSERT_TRUE(mig.migrate(
        0, 1, 0, /*dst_slot=*/1,
        [&](core::MigrationManager::Report r) { moved = r; }));
    bed.sim().runFor(sim::milliseconds(5));
    ASSERT_FALSE(moved.has_value()); // still copying

    auto *spare =
        bed.sim().make<ssd::SsdDevice>(bed.sim(), "spare", bed.config().ssd);
    std::optional<core::HotPlugManager::Report> swapped;
    bed.controller().hotPlug().replace(
        pulled, *spare,
        [&](core::HotPlugManager::Report r) { swapped = r; });
    ASSERT_TRUE(test::runUntil(
        bed.sim(), [&] { return moved && swapped; }, sim::seconds(5)));
    EXPECT_TRUE(swapped->ok);
    EXPECT_FALSE(moved->ok);
    EXPECT_EQ(mig.aborted(), 1u);
    EXPECT_FALSE(bed.engine().migrationGate().migrationActive());
    EXPECT_EQ(bed.engine().slotOwner(pulled), core::SlotOwner::None);
    // The chunk stayed on its source; the destination chunk is free.
    EXPECT_EQ(ns.chunkAt(0, 1, 0).value().slot, 0);
    auto occ = ns.occupancy();
    EXPECT_EQ(occ[0].used, 1u);
    EXPECT_EQ(occ[1].used, 1u);
}

} // namespace

TEST(Migration, PulledSourceDiskAbortsLiveCopy)
{
    expectPullAbortsCopy(0);
}

TEST(Migration, PulledDestinationDiskAbortsLiveCopy)
{
    expectPullAbortsCopy(1);
}

// The out-of-band verbs: df occupancy, migrate, migrations listing
// and evacuate all round-trip over MCTP/NVMe-MI.
TEST(Migration, ConsoleVerbsRoundTrip)
{
    harness::BmStoreTestbed bed(migConfig(2, /*functional=*/false));
    bed.attachTenant(0, sim::mib(16)); // chunk 0 → slot 0, 1 → slot 1
    core::Eid ctrl = bed.controller().endpoint().eid();

    // df: one entry per slot, agreeing with the namespace manager.
    std::vector<core::MiDfEntry> df;
    bool df_done = false;
    bed.console().df(ctrl, [&](std::vector<core::MiDfEntry> e) {
        df = std::move(e);
        df_done = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return df_done; }));
    ASSERT_EQ(df.size(), 2u);
    EXPECT_EQ(df[0].slot, 0);
    EXPECT_EQ(df[0].usedChunks, 1u);
    EXPECT_EQ(df[0].totalChunks,
              bed.controller().namespaces().totalChunks(0));
    EXPECT_EQ(df[0].freeChunks, df[0].totalChunks - df[0].usedChunks);
    EXPECT_FALSE(df[0].quiesced);
    EXPECT_EQ(df[0].chunkBytes, sim::mib(8));

    // migrate chunk 0 with auto destination (0xFF on the wire).
    core::MiMigrateResult mres;
    bool mig_done = false;
    bed.console().migrateChunk(ctrl, 0, 1, 0, 0xFF,
                               [&](core::MiMigrateResult r) {
                                   mres = r;
                                   mig_done = true;
                               });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return mig_done; },
                               sim::seconds(10)));
    EXPECT_TRUE(mres.ok);
    EXPECT_EQ(mres.dstSlot, 1);
    EXPECT_EQ(mres.bytesCopied, sim::mib(8));
    EXPECT_GT(mres.elapsedMs, 0.0);

    // migrations: the finished move shows up with full detail.
    std::vector<core::MiMigrationInfo> hist;
    bool hist_done = false;
    bed.console().migrations(ctrl,
                             [&](std::vector<core::MiMigrationInfo> h) {
                                 hist = std::move(h);
                                 hist_done = true;
                             });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return hist_done; }));
    ASSERT_EQ(hist.size(), 1u);
    EXPECT_EQ(hist[0].chunkIndex, 0u);
    EXPECT_EQ(hist[0].srcSlot, 0);
    EXPECT_EQ(hist[0].dstSlot, 1);
    EXPECT_EQ(hist[0].state, core::MigrationState::Done);
    EXPECT_EQ(hist[0].totalSegments, 8u); // 8 MiB in 1 MiB segments
    EXPECT_EQ(hist[0].copiedSegments, hist[0].totalSegments);

    // evacuate: slot 1 now holds both chunks; drain it back.
    core::MiEvacuateResult eres;
    bool evac_done = false;
    bed.console().evacuate(ctrl, 1, [&](core::MiEvacuateResult r) {
        eres = r;
        evac_done = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return evac_done; },
                               sim::seconds(10)));
    EXPECT_TRUE(eres.ok);
    EXPECT_EQ(eres.moved, 2u);
    EXPECT_EQ(eres.failed, 0u);

    // ioStats carries the same per-slot occupancy tail.
    bool stats_done = false;
    bed.console().ioStats(ctrl, 0,
                          [&](std::optional<core::MiIoStats> s) {
                              ASSERT_TRUE(s.has_value());
                              ASSERT_EQ(s->slots.size(), 2u);
                              EXPECT_EQ(s->slots[0].usedChunks, 2u);
                              EXPECT_EQ(s->slots[1].usedChunks, 0u);
                              stats_done = true;
                          });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return stats_done; }));
}
