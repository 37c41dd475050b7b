/**
 * @file
 * Simulation-fuzzer tests: a fixed set of seeds must torture the
 * whole stack cleanly, identical seeds must produce identical runs,
 * and the data-integrity oracle must actually catch corruption when
 * media bytes change behind its back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "fuzz/fleet_fuzzer.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"

using namespace bms;

namespace {

fuzz::FuzzReport
runSeed(std::uint64_t seed, sim::Tick horizon = sim::milliseconds(30))
{
    fuzz::FuzzConfig cfg;
    cfg.seed = seed;
    cfg.horizon = horizon;
    fuzz::Fuzzer fuzzer(cfg);
    return fuzzer.run();
}

/**
 * Golden replay anchors. Every determinism test below compares two
 * runs of one binary, which cannot notice a refactor that changes a
 * replay; these recorded values can. They assume libstdc++, because
 * sim::Rng draws through std::uniform_int_distribution and
 * std::normal_distribution, whose algorithms the standard leaves to
 * the library. The one change expected to re-pin them is giving each
 * object its own RNG stream (ROADMAP item 2(b)); any other change
 * that moves them changed simulated behaviour.
 */
struct Anchor
{
    std::uint64_t totalOps;
    std::uint64_t verifiedBlocks;
    sim::Tick finishedAt;
};

void
expectAnchor(const fuzz::FuzzReport &r, const Anchor &golden)
{
    EXPECT_EQ(r.totalOps, golden.totalOps);
    EXPECT_EQ(r.verifiedBlocks, golden.verifiedBlocks);
    EXPECT_EQ(r.finishedAt, golden.finishedAt);
}

} // namespace

// The ctest-pinned seed set: short horizon, full feature mix. Any
// oracle or invariant violation panics (throws here), so "the call
// returns" is the core assertion.
TEST(Fuzz, FixedSeedsPassTheOracle)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        fuzz::FuzzReport r = runSeed(seed);
        EXPECT_EQ(r.seed, seed);
        EXPECT_GT(r.totalOps, 100u);
        EXPECT_GT(r.verifiedBlocks, 0u);
        // Failed tenant I/Os are only ever excused fault injections.
        if (r.totalErrors != 0) {
            EXPECT_GT(r.faultWindows, 0);
        }
        // Transparency: nothing may stall past the host timeout.
        EXPECT_LE(r.maxCompletionGap, sim::seconds(10));
    }
}

// Pinned migration seeds: >= 2 SSDs, a guaranteed migrate + evacuate
// + status ops, and a fault window pinned over the first migration so
// both copy legs see injected errors. The oracle verifies every
// tenant read across the cutover.
TEST(Fuzz, MigrationSeedsPassTheOracle)
{
    for (std::uint64_t seed = 201; seed <= 204; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        fuzz::FuzzConfig cfg;
        cfg.seed = seed;
        cfg.horizon = sim::milliseconds(30);
        cfg.minSsds = 2;
        cfg.forceMigration = true;
        fuzz::Fuzzer fuzzer(cfg);
        fuzz::FuzzReport r = fuzzer.run();
        EXPECT_GT(r.totalOps, 100u);
        EXPECT_GT(r.migrationsStarted, 0u);
        EXPECT_EQ(r.migrationsStarted,
                  r.migrationsCompleted + r.migrationsAborted);
        EXPECT_GT(r.evacuations, 0u);
        EXPECT_GT(r.migratedBytes, 0u);
        EXPECT_LE(r.maxCompletionGap, sim::seconds(10));
    }
}

// Pinned multi-VF seeds: up to 16 tenant functions (PFs + VFs), so
// per-function multi-SQ arbitration and fetch coalescing see real
// fan-out under the oracle.
TEST(Fuzz, MultiVfSeedsPassTheOracle)
{
    for (std::uint64_t seed = 301; seed <= 304; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        fuzz::FuzzConfig cfg;
        cfg.seed = seed;
        cfg.horizon = sim::milliseconds(20);
        cfg.maxTenants = 16;
        fuzz::Fuzzer fuzzer(cfg);
        fuzz::FuzzReport r = fuzzer.run();
        EXPECT_GT(r.totalOps, 100u);
        EXPECT_GT(r.verifiedBlocks, 0u);
        if (r.totalErrors != 0) {
            EXPECT_GT(r.faultWindows, 0);
        }
        EXPECT_LE(r.maxCompletionGap, sim::seconds(10));
    }
}

// Pinned remote-tier seeds: storage nodes behind network links, a
// guaranteed early spill onto node 0, a node-0 loss mid-window
// recovered through the failNode verb (every spilled chunk flips to
// its strict-mirror shadow, then re-spills to node 1), plus link
// latency spikes and a late promote. The oracle verifies every
// tenant block across all tier moves and the recovery.
TEST(Fuzz, TieringSeedsPassTheOracle)
{
    for (std::uint64_t seed = 401; seed <= 404; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        fuzz::FuzzConfig cfg;
        cfg.seed = seed;
        cfg.horizon = sim::milliseconds(120);
        cfg.minSsds = 2;
        cfg.maxRemoteNodes = 2;
        cfg.forceTiering = true;
        fuzz::Fuzzer fuzzer(cfg);
        fuzz::FuzzReport r = fuzzer.run();
        EXPECT_GT(r.totalOps, 100u);
        EXPECT_GT(r.verifiedBlocks, 0u);
        EXPECT_EQ(r.remoteNodes, 2);
        // The forced schedule always spills (aborts under a fault
        // window surface as tier failures instead).
        EXPECT_GT(r.spills + r.tierFailures, 0u);
        EXPECT_EQ(r.nodeLosses, 1u);
        // Recovery re-points chunks at their shadows and re-spills
        // them pairwise (node 1 always survives to take them).
        EXPECT_EQ(r.chunksRecovered, r.chunksRespilled);
        if (r.totalErrors != 0) {
            EXPECT_GT(r.faultWindows, 0);
        }
        EXPECT_LE(r.maxCompletionGap, sim::seconds(10));
    }
}

// Tiering runs must replay byte-identically as well: the remote
// topology and tier schedule draw from a forked RNG stream, and the
// whole wire protocol runs on the simulator clock.
TEST(Fuzz, TieringSeedsAreDeterministic)
{
    auto run = [] {
        fuzz::FuzzConfig cfg;
        cfg.seed = 402;
        cfg.horizon = sim::milliseconds(120);
        cfg.minSsds = 2;
        cfg.maxRemoteNodes = 2;
        cfg.forceTiering = true;
        fuzz::Fuzzer fuzzer(cfg);
        return fuzzer.run();
    };
    fuzz::FuzzReport a = run();
    fuzz::FuzzReport b = run();
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.totalErrors, b.totalErrors);
    EXPECT_EQ(a.verifiedBlocks, b.verifiedBlocks);
    EXPECT_EQ(a.controlOps, b.controlOps);
    EXPECT_EQ(a.spills, b.spills);
    EXPECT_EQ(a.promotes, b.promotes);
    EXPECT_EQ(a.tierFailures, b.tierFailures);
    EXPECT_EQ(a.chunksRecovered, b.chunksRecovered);
    EXPECT_EQ(a.chunksRespilled, b.chunksRespilled);
    EXPECT_EQ(a.remoteTimeouts, b.remoteTimeouts);
    EXPECT_EQ(a.remoteRetries, b.remoteRetries);
    EXPECT_EQ(a.maxCompletionGap, b.maxCompletionGap);
    EXPECT_EQ(a.finishedAt, b.finishedAt);
    expectAnchor(a, {13883, 24874, 1602000000});
}

// Multi-VF runs must replay byte-identically too: 16 functions put
// the most same-tick events through the queue's (when, seq) order.
TEST(Fuzz, MultiVfSeedsAreDeterministic)
{
    auto run = [] {
        fuzz::FuzzConfig cfg;
        cfg.seed = 302;
        cfg.horizon = sim::milliseconds(20);
        cfg.maxTenants = 16;
        fuzz::Fuzzer fuzzer(cfg);
        return fuzzer.run();
    };
    fuzz::FuzzReport a = run();
    fuzz::FuzzReport b = run();
    EXPECT_EQ(a.tenants, b.tenants);
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.totalErrors, b.totalErrors);
    EXPECT_EQ(a.verifiedBlocks, b.verifiedBlocks);
    EXPECT_EQ(a.controlOps, b.controlOps);
    EXPECT_EQ(a.faultWindows, b.faultWindows);
    EXPECT_EQ(a.maxCompletionGap, b.maxCompletionGap);
    EXPECT_EQ(a.finishedAt, b.finishedAt);
    expectAnchor(a, {14813, 35353, 498000000});
}

// One seed is one interleaving: two runs of the same seed must agree
// on every observable outcome (this is what makes `fuzz --seed=N` a
// faithful repro of a CI failure).
TEST(Fuzz, IdenticalSeedsProduceIdenticalRuns)
{
    fuzz::FuzzReport a = runSeed(42);
    fuzz::FuzzReport b = runSeed(42);
    EXPECT_EQ(a.tenants, b.tenants);
    EXPECT_EQ(a.ssds, b.ssds);
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.totalErrors, b.totalErrors);
    EXPECT_EQ(a.verifiedBlocks, b.verifiedBlocks);
    EXPECT_EQ(a.controlOps, b.controlOps);
    EXPECT_EQ(a.upgrades, b.upgrades);
    EXPECT_EQ(a.upgradeRejections, b.upgradeRejections);
    EXPECT_EQ(a.faultWindows, b.faultWindows);
    EXPECT_EQ(a.injectedMediaErrors, b.injectedMediaErrors);
    EXPECT_EQ(a.injectedLatencySpikes, b.injectedLatencySpikes);
    EXPECT_EQ(a.migrationsStarted, b.migrationsStarted);
    EXPECT_EQ(a.migrationsCompleted, b.migrationsCompleted);
    EXPECT_EQ(a.migrationsAborted, b.migrationsAborted);
    EXPECT_EQ(a.migrationsRejected, b.migrationsRejected);
    EXPECT_EQ(a.evacuations, b.evacuations);
    EXPECT_EQ(a.migratedBytes, b.migratedBytes);
    EXPECT_EQ(a.maxCompletionGap, b.maxCompletionGap);
    EXPECT_EQ(a.finishedAt, b.finishedAt);
    // `fuzz --seed=42 --horizon-ms=30` prints ops=5298
    // verified-blocks=14559.
    expectAnchor(a, {5298, 14559, 50000000});
}

// Same for the migration-heavy mode.
TEST(Fuzz, MigrationSeedsAreDeterministic)
{
    auto run = [] {
        fuzz::FuzzConfig cfg;
        cfg.seed = 203;
        cfg.horizon = sim::milliseconds(30);
        cfg.minSsds = 2;
        cfg.forceMigration = true;
        fuzz::Fuzzer fuzzer(cfg);
        return fuzzer.run();
    };
    fuzz::FuzzReport a = run();
    fuzz::FuzzReport b = run();
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.verifiedBlocks, b.verifiedBlocks);
    EXPECT_EQ(a.migrationsStarted, b.migrationsStarted);
    EXPECT_EQ(a.migrationsCompleted, b.migrationsCompleted);
    EXPECT_EQ(a.migratedBytes, b.migratedBytes);
    EXPECT_EQ(a.finishedAt, b.finishedAt);
    expectAnchor(a, {621, 3171, 8094000000});
}

// Different seeds must diverge — a sweep that replays one schedule N
// times would be useless.
TEST(Fuzz, DifferentSeedsDiverge)
{
    fuzz::FuzzReport a = runSeed(1);
    fuzz::FuzzReport b = runSeed(2);
    EXPECT_NE(a.totalOps, b.totalOps);
}

// Self-test of the oracle itself: scribble on the back-end flash
// behind its shadow map and the next read must panic. Without this,
// a silently-vacuous oracle would make every fuzz run "pass".
TEST(Fuzz, OracleCatchesMediaCorruption)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));

    fuzz::OpLog log(64);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = 1;
    ocfg.baseOffset = 0; // tenant chunk 0 sits at physical LBA 0
    ocfg.regionBytes = sim::mib(1);
    auto &oracle = *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle", disk, bed.host().memory(), log, ocfg);

    bool wrote = false;
    oracle.write(0, 8, [&](bool ok) {
        EXPECT_TRUE(ok);
        wrote = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

    // Sanity: the clean read-back passes.
    bool read_ok = false;
    oracle.read(0, 8, [&](bool ok) { read_ok = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return read_ok; }));
    EXPECT_EQ(oracle.verifiedBlocks(), 8u);

    // Flip the stamp word of block 3 directly on the flash.
    std::uint64_t junk = 0xdeadbeefcafef00dULL;
    bed.ssd(0).flash().write(3 * 4096 + 2 * 8, 8,
                             reinterpret_cast<std::uint8_t *>(&junk));
    EXPECT_PANIC([&] {
        oracle.read(0, 8, nullptr);
        test::runUntil(bed.sim(), [] { return false; },
                       sim::milliseconds(5));
    }());
}

// Same self-test for torn content: corrupt a non-stamp word so the
// decoded stamp still looks legal but the pattern check must trip.
TEST(Fuzz, OracleCatchesTornBlock)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));

    fuzz::OpLog log(64);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = 1;
    ocfg.baseOffset = 0;
    ocfg.regionBytes = sim::mib(1);
    auto &oracle = *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle", disk, bed.host().memory(), log, ocfg);

    bool wrote = false;
    oracle.write(0, 1, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

    // Word 5 is a block-index word in the second pattern group; the
    // stamp word (index 2) stays intact.
    std::uint64_t junk = 0x12345678;
    bed.ssd(0).flash().write(5 * 8, 8,
                             reinterpret_cast<std::uint8_t *>(&junk));
    EXPECT_PANIC([&] {
        oracle.read(0, 1, nullptr);
        test::runUntil(bed.sim(), [] { return false; },
                       sim::milliseconds(5));
    }());
}

// The torn check covers every group: a bad word in the block's last
// 32-byte group (group 127, word 509 is its block-index word) trips
// it, though the first 127 groups are intact.
TEST(Fuzz, OracleCatchesTornLastGroup)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));

    fuzz::OpLog log(64);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = 1;
    ocfg.baseOffset = 0;
    ocfg.regionBytes = sim::mib(1);
    auto &oracle = *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle", disk, bed.host().memory(), log, ocfg);

    bool wrote = false;
    oracle.write(0, 1, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

    std::uint64_t junk = 0x12345678;
    bed.ssd(0).flash().write(509 * 8, 8,
                             reinterpret_cast<std::uint8_t *>(&junk));
    EXPECT_PANIC([&] {
        oracle.read(0, 1, nullptr);
        test::runUntil(bed.sim(), [] { return false; },
                       sim::milliseconds(5));
    }());
}

// The oracle's payload costs no frame: each written block is a unit
// page (one 32-byte group, sim/page_store.hh) from the host buffer,
// through the engine, to flash and back. A 4 MiB prefill leaves every
// flash page of its 1024 blocks a unit page, and a read-back sweep
// verifies them all. Protocol units (SQEs, CQEs, PRP lists) are byte
// writes, so a command may carve a frame for its PRP list in host and
// in chip memory and for a ring page it is the first to touch: fewer
// than 3 per command, where a frame per block would be 32.
TEST(Fuzz, OraclePrefillCarvesNoFrame)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));

    fuzz::OpLog log(64);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = 1;
    ocfg.regionBytes = sim::mib(4);
    auto &oracle = *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle", disk, bed.host().memory(), log, ocfg);
    sim::PageStore &pages = bed.sim().pages();
    std::size_t frames = pages.liveFrames();

    int pending = 0;
    const std::uint32_t step = oracle.maxIoBlocks();
    for (std::uint64_t b = 0; b < oracle.blocks(); b += step) {
        ++pending;
        oracle.write(b, step, [&](bool ok) {
            EXPECT_TRUE(ok);
            --pending;
        });
    }
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return pending == 0; }));
    const sim::SparseMemory &flash = bed.ssd(0).flash();
    std::uint64_t units = 0;
    for (std::uint64_t b = 0; b < oracle.blocks(); ++b) {
        std::optional<sim::PageStore::Unit> u =
            flash.unit(b * nvme::kBlockSize);
        units += u && *u != sim::PageStore::Unit{};
    }
    EXPECT_EQ(units, oracle.blocks());
    EXPECT_EQ(flash.allocatedPages(), oracle.blocks());
    EXPECT_LT(pages.liveFrames() - frames, 3 * oracle.writes());

    fuzz::OracleDevice::SweepTally tally;
    oracle.sweep(tally);
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return tally.pending == 0; }));
    EXPECT_EQ(tally.failed, 0u);
    EXPECT_EQ(oracle.verifiedBlocks(), oracle.blocks());
    EXPECT_LT(pages.liveFrames() - frames,
              3 * (oracle.writes() + oracle.reads()));
}

// A block nobody is touching holds one life: under QD8 50/50 load a
// dead stamp is dropped once no in-flight read is at or before its
// death, so once the load drains and a sweep reads the window back,
// only every block's settled stamp is left.
TEST(Fuzz, IdleBlockKeepsOneLife)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));

    fuzz::OpLog log(64);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = 1;
    ocfg.regionBytes = sim::mib(4);
    auto &oracle = *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle", disk, bed.host().memory(), log, ocfg);
    fuzz::TenantSpec spec;
    spec.iodepth = 8;
    spec.readRatio = 0.5;
    spec.maxIoBlocks = oracle.maxIoBlocks();
    auto &load = *bed.sim().make<fuzz::TenantWorkload>(
        bed.sim(), "load", oracle, sim::Rng(1), spec);
    load.start();
    bed.sim().runFor(sim::milliseconds(60));
    bool drained = false;
    load.stop([&] { drained = true; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return drained; }));
    EXPECT_EQ(load.errors(), 0u);
    // More write ops than blocks: most blocks were overwritten.
    ASSERT_GT(oracle.writes(), oracle.blocks());

    fuzz::OracleDevice::SweepTally tally;
    oracle.sweep(tally);
    ASSERT_TRUE(
        test::runUntil(bed.sim(), [&] { return tally.pending == 0; }));
    EXPECT_EQ(tally.failed, 0u);
    EXPECT_EQ(oracle.retainedLives(), oracle.blocks());
}

// Unwritten blocks must read back all-zero (stamp 0): the final
// sweep relies on this to verify blocks the schedule never touched.
TEST(Fuzz, OracleAcceptsZeroFillOnUnwrittenBlocks)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(64));

    fuzz::OpLog log(64);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = 1;
    ocfg.regionBytes = sim::mib(1);
    auto &oracle = *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle", disk, bed.host().memory(), log, ocfg);

    bool read_ok = false;
    oracle.read(17, 4, [&](bool ok) { read_ok = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return read_ok; }));
    EXPECT_EQ(oracle.verifiedBlocks(), 4u);
}

// Pinned thin-provisioning seeds: every tenant is a thin namespace
// mixing TRIMs into its stream, with a guaranteed mid-run snapshot of
// tenant 0, a writable clone verified against the snapshot's captured
// stamp lineage, and a late snapshot delete — chunk CoW fires under
// live I/O and the oracle checks every block across all of it.
TEST(Fuzz, ThinSeedsPassTheOracle)
{
    std::uint64_t total_cow = 0;
    for (std::uint64_t seed = 501; seed <= 504; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        fuzz::FuzzConfig cfg;
        cfg.seed = seed;
        cfg.horizon = sim::milliseconds(30);
        cfg.forceThin = true;
        fuzz::Fuzzer fuzzer(cfg);
        fuzz::FuzzReport r = fuzzer.run();
        EXPECT_GT(r.totalOps, 100u);
        EXPECT_GT(r.verifiedBlocks, 0u);
        // The forced schedule always runs the full lifecycle.
        EXPECT_EQ(r.snapshots, 1u);
        EXPECT_EQ(r.clones, 1u);
        EXPECT_EQ(r.snapshotDeletes, 1u);
        // Thin mechanics really engaged: allocate-on-write, tenant
        // deallocates, and CoW off the pinned chunks.
        EXPECT_GT(r.thinAllocs, 0u);
        EXPECT_GT(r.trims, 0u);
        EXPECT_GT(r.dsmCommands, 0u);
        total_cow += r.cowCopies;
        if (r.totalErrors != 0) {
            EXPECT_GT(r.faultWindows, 0);
        }
        EXPECT_LE(r.maxCompletionGap, sim::seconds(10));
    }
    // A seed whose snapshot lands in the window's last breath may see
    // no post-pin write; across the pinned set CoW always fires.
    EXPECT_GT(total_cow, 0u);
}

// Thin/snapshot runs must replay byte-identically: all their extra
// randomness comes from a forked stream and the snapshot/clone/delete
// chain runs on the simulator clock.
TEST(Fuzz, ThinSeedsAreDeterministic)
{
    auto run = [] {
        fuzz::FuzzConfig cfg;
        cfg.seed = 502;
        cfg.horizon = sim::milliseconds(30);
        cfg.forceThin = true;
        fuzz::Fuzzer fuzzer(cfg);
        return fuzzer.run();
    };
    fuzz::FuzzReport a = run();
    fuzz::FuzzReport b = run();
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.totalErrors, b.totalErrors);
    EXPECT_EQ(a.verifiedBlocks, b.verifiedBlocks);
    EXPECT_EQ(a.controlOps, b.controlOps);
    EXPECT_EQ(a.trims, b.trims);
    EXPECT_EQ(a.thinAllocs, b.thinAllocs);
    EXPECT_EQ(a.trimmedChunks, b.trimmedChunks);
    EXPECT_EQ(a.dsmCommands, b.dsmCommands);
    EXPECT_EQ(a.zeroFillReads, b.zeroFillReads);
    EXPECT_EQ(a.cowCopies, b.cowCopies);
    EXPECT_EQ(a.maxCompletionGap, b.maxCompletionGap);
    EXPECT_EQ(a.finishedAt, b.finishedAt);
    expectAnchor(a, {1208, 9489, 8209000000});
}

namespace {

/** Thin-provisioning testbed: one 64 MiB SSD in 8 MiB chunks. */
harness::TestbedConfig
thinSnapCfg()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = true;
    cfg.ssd.profile.capacityBytes = sim::mib(64);
    cfg.chunkBytes = sim::mib(8);
    return cfg;
}

fuzz::OracleDevice &
chunk0Oracle(harness::BmStoreTestbed &bed, host::NvmeDriver &drv,
             fuzz::OpLog &log, std::uint32_t uid)
{
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = uid;
    ocfg.baseOffset = 0;
    ocfg.regionBytes = sim::mib(1);
    return *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle" + std::to_string(uid), drv,
        bed.host().memory(), log, ocfg);
}

} // namespace

// Planted bug (a): a CoW that flips the mapping entry to the new
// chunk BEFORE the copy ran. The tenant's next read lands on the
// uncopied chunk and the oracle must panic — its current stamp is
// gone and the zero pre-image died at the first write.
TEST(Fuzz, OracleCatchesPrematureCowFlip)
{
    harness::BmStoreTestbed bed(thinSnapCfg());
    core::NamespaceManager &ns = bed.controller().namespaces();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), core::NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &oracle = chunk0Oracle(bed, drv, log, 1);

    bool wrote = false;
    oracle.write(0, 8, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));
    ASSERT_TRUE(ns.snapshot(0, 1).has_value()); // entry now shared

    // The "firmware bug": grab a fresh chunk and point the tenant's
    // mapping entry at it with no copy (setEntry also clears the
    // shared bit, so nothing downstream will fix this up).
    auto dst = ns.takeChunk(0);
    ASSERT_TRUE(dst.has_value());
    core::NsBinding *binding = bed.engine().findBinding(0, 1);
    ASSERT_NE(binding, nullptr);
    ASSERT_TRUE(binding->map.setEntry(0, 0, *dst, 0));

    EXPECT_PANIC([&] {
        oracle.read(0, 8, nullptr);
        test::runUntil(bed.sim(), [] { return false; },
                       sim::milliseconds(5));
    }());
}

// Planted bug (b): a deallocate that returns a chunk to the pool
// while a snapshot still pins it. Another thin tenant reallocates the
// chunk and scribbles over the pinned image; a clone reading through
// its adopted lineage must panic on the foreign data.
TEST(Fuzz, OracleCatchesDeallocateIgnoringSnapshotPin)
{
    harness::BmStoreTestbed bed(thinSnapCfg());
    core::NamespaceManager &ns = bed.controller().namespaces();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), core::NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &parent = chunk0Oracle(bed, drv, log, 1);

    bool wrote = false;
    parent.write(0, 32, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));
    auto pinned = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(pinned.has_value());

    sim::Tick pin_tick = bed.sim().now();
    auto snap = ns.snapshot(0, 1);
    ASSERT_TRUE(snap.has_value());
    fuzz::OracleDevice::Lineage lineage = parent.captureLineage(pin_tick);

    auto clone_fn = bed.claimVf();
    auto clone_nsid = ns.clone(*snap, clone_fn);
    ASSERT_TRUE(clone_nsid.has_value());
    host::NvmeDriver &cdrv = bed.attachDriver(clone_fn, *clone_nsid);
    fuzz::OracleDevice &clone = chunk0Oracle(bed, cdrv, log, 7);
    clone.adoptLineage(lineage);

    // Sanity: the clone reads the pinned image through the lineage.
    bool read_ok = false;
    clone.read(0, 32, [&](bool ok) { read_ok = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return read_ok; }));

    // The "firmware bug": the tenant's deallocate drops every pool
    // reference, ignoring the snapshot and clone pins.
    ASSERT_TRUE(ns.freeChunkAt(0, 1, 0));
    ns.releaseChunk(pinned->slot, pinned->chunk);
    ns.releaseChunk(pinned->slot, pinned->chunk);
    EXPECT_EQ(ns.chunkRefs(pinned->slot, pinned->chunk), 0u);

    // A second thin tenant's first write reallocates the lowest free
    // chunk — the one the snapshot still pins (assert it, the test
    // rides on that allocator order) — and scrubs + overwrites it.
    host::NvmeDriver &bdrv = bed.attachTenant(
        1, sim::mib(8), core::NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OracleDevice &other = chunk0Oracle(bed, bdrv, log, 2);
    wrote = false;
    other.write(0, 32, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));
    auto reused = ns.chunkAt(1, 1, 0);
    ASSERT_TRUE(reused.has_value());
    ASSERT_EQ(reused->slot, pinned->slot);
    ASSERT_EQ(reused->chunk, pinned->chunk);

    EXPECT_PANIC([&] {
        clone.read(0, 32, nullptr);
        test::runUntil(bed.sim(), [] { return false; },
                       sim::milliseconds(5));
    }());
}

// Planted bug (c): the shared bit of a pinned entry gets lost, so a
// parent overwrite lands in place instead of diverting through CoW.
// The clone's next read sees the parent's post-pin stamp — not in its
// adopted lineage — and must panic.
TEST(Fuzz, OracleCatchesLostSharedBitSkippingCow)
{
    harness::BmStoreTestbed bed(thinSnapCfg());
    core::NamespaceManager &ns = bed.controller().namespaces();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), core::NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &parent = chunk0Oracle(bed, drv, log, 1);

    bool wrote = false;
    parent.write(0, 16, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

    sim::Tick pin_tick = bed.sim().now();
    auto snap = ns.snapshot(0, 1);
    ASSERT_TRUE(snap.has_value());
    fuzz::OracleDevice::Lineage lineage = parent.captureLineage(pin_tick);

    auto clone_fn = bed.claimVf();
    auto clone_nsid = ns.clone(*snap, clone_fn);
    ASSERT_TRUE(clone_nsid.has_value());
    host::NvmeDriver &cdrv = bed.attachDriver(clone_fn, *clone_nsid);
    fuzz::OracleDevice &clone = chunk0Oracle(bed, cdrv, log, 7);
    clone.adoptLineage(lineage);

    // The "firmware bug": the parent entry forgets it is shared.
    core::NsBinding *binding = bed.engine().findBinding(0, 1);
    ASSERT_NE(binding, nullptr);
    binding->map.setShared(0, 0, false);

    // Parent overwrite now skips CoW and hits the pinned chunk.
    std::uint64_t cows = bed.engine().targetController().cowTriggers();
    wrote = false;
    parent.write(0, 16, [&](bool ok) { wrote = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));
    EXPECT_EQ(bed.engine().targetController().cowTriggers(), cows);

    EXPECT_PANIC([&] {
        clone.read(0, 16, nullptr);
        test::runUntil(bed.sim(), [] { return false; },
                       sim::milliseconds(5));
    }());
}

// A snapshot pin holds what the parent overwrites while the verb is
// on the wire: W1's stamp died at W2's completion, after the pin, so
// the snapshot may have frozen it even though W3 has completed too.
TEST(Fuzz, LineageKeepsStampOverwrittenDuringPin)
{
    harness::BmStoreTestbed bed(thinSnapCfg());
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), core::NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &parent = chunk0Oracle(bed, drv, log, 1);
    auto write0 = [&] {
        bool wrote = false;
        parent.write(0, 1, [&](bool ok) { wrote = ok; });
        ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));
    };

    write0(); // W1: stamp 1
    sim::Tick pin = parent.holdPin();
    write0(); // W2 kills W1
    write0(); // W3 kills W2
    fuzz::OracleDevice::Lineage lineage = parent.captureLineage(pin);
    parent.releasePin(pin);
    using Stamp = fuzz::OracleDevice::Stamp;
    const std::vector<Stamp> &b0 = lineage[0];
    EXPECT_NE(std::find(b0.begin(), b0.end(), Stamp{1, 1}), b0.end())
        << "W1's stamp is missing from the lineage";
    EXPECT_EQ(b0.size(), 3u); // W1, W2 and W3
    // An untouched block holds only its zeroes.
    EXPECT_EQ(lineage[1], std::vector<Stamp>{Stamp{}});

    // With the pin released and the clock moved on, block 0 keeps
    // only W3.
    bool read_ok = false;
    parent.read(0, 1, [&](bool ok) { read_ok = ok; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return read_ok; }));
    EXPECT_EQ(parent.retainedLives(), parent.blocks());
}

// The fleet-pinned seed set (601-604): N cards in one simulation,
// randomized admissions, a rolling wave and a correlated drill — any
// oracle or invariant violation panics, so "the call returns" is the
// core assertion here too.
TEST(Fuzz, FleetSeedsPassTheOracle)
{
    for (std::uint64_t seed = 601; seed <= 604; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        fuzz::FleetFuzzConfig cfg;
        cfg.seed = seed;
        cfg.horizon = sim::milliseconds(60);
        fuzz::FleetFuzzer fuzzer(cfg);
        fuzz::FleetFuzzReport r = fuzzer.run();
        EXPECT_GE(r.cards, 2);
        EXPECT_GT(r.placed, 0);
        EXPECT_GT(r.active, 0);
        EXPECT_GT(r.totalOps, 100u);
        EXPECT_GT(r.verifiedBlocks, 0u);
        // The wave ran to completion over every slot fleet-wide.
        EXPECT_EQ(r.waveOpsOk + r.waveOpsFailed,
                  static_cast<std::uint32_t>(r.cards) * 2u);
        // The drill opened its window and every node loss recovered.
        EXPECT_EQ(r.faultWindows, 1u);
        EXPECT_GT(r.nodeLosses, 0u);
        if (r.totalErrors != 0) {
            EXPECT_GT(r.faultWindows, 0u);
        }
        EXPECT_LE(r.maxCompletionGap, sim::seconds(10));
    }
}

TEST(Fuzz, FleetSeedsAreDeterministic)
{
    auto run = [] {
        fuzz::FleetFuzzConfig cfg;
        cfg.seed = 602;
        cfg.horizon = sim::milliseconds(60);
        fuzz::FleetFuzzer fuzzer(cfg);
        return fuzzer.run();
    };
    fuzz::FleetFuzzReport a = run();
    fuzz::FleetFuzzReport b = run();
    EXPECT_EQ(a.cards, b.cards);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(a.totalOps, b.totalOps);
    EXPECT_EQ(a.totalErrors, b.totalErrors);
    EXPECT_EQ(a.verifiedBlocks, b.verifiedBlocks);
    EXPECT_EQ(a.waveOpsOk, b.waveOpsOk);
    EXPECT_EQ(a.waveOpsFailed, b.waveOpsFailed);
    EXPECT_EQ(a.waveMakespan, b.waveMakespan);
    EXPECT_EQ(a.nodeLosses, b.nodeLosses);
    EXPECT_EQ(a.stormRejections, b.stormRejections);
    EXPECT_EQ(a.maxCompletionGap, b.maxCompletionGap);
    // The op trace is the fleet's determinism fingerprint: same seed,
    // same schedule, byte-identical operator history.
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.finishedAt, b.finishedAt);
    // Golden anchor (see Anchor above).
    EXPECT_EQ(a.traceHash, 0x04f68b3d686cfc64u);
}

TEST(OpLog, KeepsTheLastEntriesAndDumpsThemOldestFirst)
{
    sim::Simulator sim;
    sim::SimObject oracle(sim, "oracle0");
    fuzz::OpLog log(3);
    log.record(10, &oracle, "write  blk={}+{} stamp={}", 7, 2, 41);
    log.record(20, &oracle, "read   blk={}+{}", 7, 2);
    log.record(30, nullptr, "fault window OPEN");
    log.record(40, nullptr, "ctrl clone snap={} fn={}", 3, 5);
    log.record(50, &oracle, "flush");
    EXPECT_EQ(log.recorded(), 5u);
    EXPECT_EQ(log.capacity(), 3u);

    std::ostringstream os;
    log.dump(os);
    EXPECT_EQ(os.str(), "---- fuzz op log (last 3 of 5 ops) ----\n"
                        "  [30] fault window OPEN\n"
                        "  [40] ctrl clone snap=3 fn=5\n"
                        "  [50] oracle0 flush\n"
                        "---- end op log ----\n");
}

TEST(OpLog, EachKindDumpsOneLine)
{
    sim::Simulator sim;
    sim::SimObject oracle(sim, "t0");
    fuzz::OpLog log(8);
    log.record(1, &oracle, "write  blk={}+{} stamp={}", 4, 1, 9);
    log.record(2, &oracle, "write-FAILED(excused) stamp={}", 9);
    log.record(3, &oracle, "trim-FAILED(excused) blk={}", 4);
    log.record(4, nullptr, "run start: seed={} ssds={}", 12, 2);

    std::ostringstream os;
    log.dump(os);
    EXPECT_EQ(os.str(), "---- fuzz op log (last 4 of 4 ops) ----\n"
                        "  [1] t0 write  blk=4+1 stamp=9\n"
                        "  [2] t0 write-FAILED(excused) stamp=9\n"
                        "  [3] t0 trim-FAILED(excused) blk=4\n"
                        "  [4] run start: seed=12 ssds=2\n"
                        "---- end op log ----\n");
}
