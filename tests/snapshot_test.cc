/**
 * @file
 * Thin provisioning, deallocate/TRIM, and chunk-CoW snapshot tests:
 * overcommitted thin fleets, DSM semantics (partial trims scrub but
 * never free; a whole-chunk deallocate returns the chunk to the
 * pool), the snapshot → clone → delete lifecycle over the console
 * verbs, and chunk CoW under live tenant I/O — all data verified
 * through the fuzzer's write-stamp oracle, with the chunk-row
 * ownership census checked at every drained point.
 */

#include <gtest/gtest.h>

#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"

using namespace bms;
using core::NamespaceManager;

namespace {

/** Small-geometry testbed: 64 MiB SSDs carved into 8 MiB chunks, so
 *  a slot holds 8 physical chunks and every scrub/copy is quick. */
harness::TestbedConfig
thinConfig(int ssds = 1)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = ssds;
    cfg.ssd.functionalData = true;
    cfg.ssd.profile.capacityBytes = sim::mib(64);
    cfg.chunkBytes = sim::mib(8);
    return cfg;
}

/** Oracle whose verified window is tenant chunk 0, wholesale. */
fuzz::OracleDevice &
makeChunkOracle(harness::BmStoreTestbed &bed, host::NvmeDriver &drv,
                fuzz::OpLog &log, std::uint32_t uid)
{
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = uid;
    ocfg.baseOffset = 0;
    ocfg.regionBytes = sim::mib(8);
    // Lets a whole-chunk deallocate go out as one DSM range (discards
    // are not MDTS-bound); reads/writes must stay within the driver's
    // 2 MiB MDTS themselves.
    ocfg.maxIoBytes = sim::mib(8);
    return *bed.sim().make<fuzz::OracleDevice>(
        bed.sim(), "oracle" + std::to_string(uid), drv,
        bed.host().memory(), log, ocfg);
}

void
await(harness::BmStoreTestbed &bed, const std::function<bool()> &pred,
      sim::Tick timeout = sim::seconds(30))
{
    ASSERT_TRUE(test::runUntil(bed.sim(), pred, timeout));
}

/** Wait until every queued chunk op (scrub, CoW, trim) settled. */
void
drainChunkOps(harness::BmStoreTestbed &bed)
{
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] {
        return bed.engine().targetController().pendingChunkOps() == 0 &&
               bed.controller().migration().idle();
    }));
}

} // namespace

// The headline number: thin namespaces promise far more capacity
// than the raw media holds. One 64 MiB SSD (8 chunks) carries 80
// thin 8 MiB namespaces — 10x overcommit — because creation maps
// nothing; writes allocate, and the promised-vs-allocated gap is
// visible per slot through df.
TEST(ThinProvisioning, TenfoldOvercommitFleet)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();

    // Eight tenants get drivers + oracles (they will fill the media);
    // the other 72 namespaces are promises only.
    fuzz::OpLog log(64);
    std::vector<fuzz::OracleDevice *> oracles;
    for (int t = 0; t < 8; ++t) {
        host::NvmeDriver &drv = bed.attachTenant(
            static_cast<pcie::FunctionId>(t), sim::mib(8),
            NamespaceManager::Policy::RoundRobin, core::QosLimits(),
            nullptr, -1, /*thin=*/true);
        oracles.push_back(&makeChunkOracle(
            bed, drv, log, static_cast<std::uint32_t>(t + 1)));
    }
    for (int i = 8; i < 80; ++i) {
        auto created = ns.createThin(static_cast<pcie::FunctionId>(i),
                                     sim::mib(8));
        ASSERT_TRUE(created.has_value()) << "thin create " << i;
    }

    auto occ = ns.occupancy();
    ASSERT_EQ(occ.size(), 1u);
    EXPECT_EQ(occ[0].total, 8u);
    EXPECT_EQ(occ[0].used, 0u); // nothing written yet
    EXPECT_GE(occ[0].logical, 10 * occ[0].total);

    // The same overcommit picture over the out-of-band console.
    bool polled = false;
    bed.console().df(bed.controller().endpoint().eid(),
                     [&](std::vector<core::MiDfEntry> df) {
                         ASSERT_EQ(df.size(), 1u);
                         EXPECT_EQ(df[0].totalChunks, 8u);
                         EXPECT_GE(df[0].logicalChunks,
                                   10 * df[0].totalChunks);
                         polled = true;
                     });
    await(bed, [&] { return polled; });

    // Fill the physical capacity: each of the 8 live tenants writes
    // its whole chunk (verified data), allocating on first write.
    for (auto *oracle : oracles) {
        const std::uint32_t step = 512; // 2 MiB — the driver's MDTS
        std::uint64_t written = 0;
        for (std::uint64_t b = 0; b < oracle->blocks(); b += step) {
            oracle->write(b, step, [&](bool ok) {
                EXPECT_TRUE(ok);
                written += step;
            });
            await(bed, [&] { return written == b + step; });
        }
    }
    drainChunkOps(bed);
    occ = ns.occupancy();
    EXPECT_EQ(occ[0].used, 8u);
    EXPECT_EQ(occ[0].free, 0u);

    // The pool is exhausted: a write-triggered allocation for any of
    // the promised-only namespaces must fail cleanly.
    EXPECT_FALSE(ns.allocateChunkAt(9, 1, 0).has_value());

    // Everything written reads back verified.
    for (auto *oracle : oracles) {
        bool ok = false;
        oracle->read(0, 512, [&](bool r) { ok = r; });
        await(bed, [&] { return ok; });
    }
    ns.checkRefInvariants();
}

// DSM/Deallocate semantics: a partial-chunk trim scrubs the range to
// zero but never frees the chunk; a single whole-chunk deallocate
// returns it to the pool, after which reads are served as zeros
// without touching media and the next write re-allocates.
TEST(ThinProvisioning, DeallocateScrubsAndFreesWholeChunksOnly)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();
    core::TargetController &tc = bed.engine().targetController();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &oracle = makeChunkOracle(bed, drv, log, 1);

    // Reads of a never-written thin namespace return zeros without
    // media access (and without allocating anything).
    std::uint64_t zero_reads = tc.zeroFillReads();
    bool read_ok = false;
    oracle.read(100, 8, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });
    EXPECT_GT(tc.zeroFillReads(), zero_reads);
    EXPECT_FALSE(ns.chunkAt(0, 1, 0).has_value());

    // First write allocates (and the scrubbed remainder reads zero).
    bool wrote = false;
    oracle.write(0, 64, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    ASSERT_TRUE(ns.chunkAt(0, 1, 0).has_value());
    EXPECT_EQ(ns.occupancy()[0].used, 1u);

    // Partial trim: blocks 16..31 read back zero, chunk stays.
    std::uint64_t dsm = tc.dsmCommands();
    bool trimmed = false;
    oracle.trim(16, 16, [&](bool ok) { trimmed = ok; });
    await(bed, [&] { return trimmed; });
    EXPECT_GT(tc.dsmCommands(), dsm);
    EXPECT_EQ(tc.trimmedChunks(), 0u);
    ASSERT_TRUE(ns.chunkAt(0, 1, 0).has_value());
    read_ok = false;
    oracle.read(0, 64, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });

    // Whole-chunk deallocate (one 8 MiB range): the chunk returns to
    // the pool and the namespace grows a hole.
    trimmed = false;
    oracle.trim(0, static_cast<std::uint32_t>(oracle.blocks()),
                [&](bool ok) { trimmed = ok; });
    await(bed, [&] { return trimmed; });
    drainChunkOps(bed);
    EXPECT_EQ(tc.trimmedChunks(), 1u);
    EXPECT_FALSE(ns.chunkAt(0, 1, 0).has_value());
    EXPECT_EQ(ns.occupancy()[0].used, 0u);

    // Trimmed reads are zero-fill again — no backing, no media I/O.
    zero_reads = tc.zeroFillReads();
    read_ok = false;
    oracle.read(0, 64, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });
    EXPECT_GT(tc.zeroFillReads(), zero_reads);

    // And the next write re-allocates.
    wrote = false;
    oracle.write(32, 8, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    EXPECT_TRUE(ns.chunkAt(0, 1, 0).has_value());
    EXPECT_EQ(ns.occupancy()[0].used, 1u);
    ns.checkRefInvariants();
}

// Snapshot → clone → delete over the console verbs: the clone reads
// the pinned image through its adopted lineage, the parent diverges
// via chunk CoW without disturbing it, the clone diverges the same
// way, and deleting the snapshot drops only the snapshot's pins.
TEST(Snapshots, CloneLifecycleOverConsoleVerbs)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();
    core::TargetController &tc = bed.engine().targetController();
    core::Eid ctrl = bed.controller().endpoint().eid();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &parent = makeChunkOracle(bed, drv, log, 1);

    bool wrote = false;
    parent.write(0, 32, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });

    // Pin. The lineage filter tick is the verb's submit tick, held
    // while the verb is on the wire.
    sim::Tick pin_submit = parent.holdPin();
    std::optional<std::uint32_t> snap;
    bool pinned = false;
    bed.console().snapshot(ctrl, 0, 1,
                           [&](std::optional<std::uint32_t> id,
                               std::vector<core::MiSnapInfo> all) {
                               snap = id;
                               ASSERT_EQ(all.size(), 1u);
                               EXPECT_EQ(all[0].pinnedChunks, 1u);
                               pinned = true;
                           });
    await(bed, [&] { return pinned; });
    ASSERT_TRUE(snap.has_value());
    fuzz::OracleDevice::Lineage lineage =
        parent.captureLineage(pin_submit);
    parent.releasePin(pin_submit);
    auto alloc = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 2u);

    // Materialise a writable clone and bring a driver up on it.
    pcie::FunctionId clone_fn = bed.claimVf();
    std::optional<std::uint32_t> clone_nsid;
    bool cloned = false;
    bed.console().clone(ctrl, *snap,
                        static_cast<std::uint8_t>(clone_fn),
                        core::QosLimits(),
                        [&](std::optional<std::uint32_t> id) {
                            clone_nsid = id;
                            cloned = true;
                        });
    await(bed, [&] { return cloned; });
    ASSERT_TRUE(clone_nsid.has_value());
    EXPECT_TRUE(ns.isThin(clone_fn, *clone_nsid));
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 3u);
    host::NvmeDriver &cdrv = bed.attachDriver(clone_fn, *clone_nsid);
    fuzz::OracleDevice &clone = makeChunkOracle(bed, cdrv, log, 7);
    clone.adoptLineage(lineage);

    // The clone reads the parent-written image (no copy happened).
    bool read_ok = false;
    clone.read(0, 32, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });
    EXPECT_GE(clone.verifiedBlocks(), 32u);

    // Parent overwrite diverges through chunk CoW; the pinned image
    // must survive for the clone.
    std::uint64_t cows = tc.cowTriggers();
    wrote = false;
    parent.write(0, 32, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    drainChunkOps(bed);
    EXPECT_GT(tc.cowTriggers(), cows);
    read_ok = false;
    clone.read(0, 32, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });

    // Clone overwrite diverges the clone's copy the same way.
    wrote = false;
    clone.write(8, 8, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    drainChunkOps(bed);
    read_ok = false;
    clone.read(0, 32, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });

    // Drop the snapshot: only its pin goes away; both namespaces
    // keep their (now private) chunks and their data.
    bool deleted = false;
    bed.console().deleteSnapshot(ctrl, *snap, [&](bool ok) {
        EXPECT_TRUE(ok);
        deleted = true;
    });
    await(bed, [&] { return deleted; });
    read_ok = false;
    clone.read(0, 32, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });
    read_ok = false;
    parent.read(0, 32, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });
    ns.checkRefInvariants();

    // Deleting it twice is a clean refusal.
    bool second = true;
    bed.console().deleteSnapshot(ctrl, *snap,
                                 [&](bool ok) { second = ok; });
    await(bed, [&] { return !second; });
}

// A namespace CoW'd off its chunk leaves the snapshot's pin as the
// chunk's only reference: no namespace record names it any more. A
// lossless replacement of its slot must keep the disk, or a clone made
// afterwards reads a blank chunk.
TEST(Snapshots, LosslessReplaceKeepsDiskHoldingASnapshotOnlyChunk)
{
    harness::BmStoreTestbed bed(thinConfig(2));
    NamespaceManager &ns = bed.controller().namespaces();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &parent = makeChunkOracle(bed, drv, log, 1);

    bool wrote = false;
    parent.write(0, 32, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    sim::Tick pin_submit = bed.sim().now();
    auto snap = ns.snapshot(0, 1);
    ASSERT_TRUE(snap.has_value());
    fuzz::OracleDevice::Lineage lineage =
        parent.captureLineage(pin_submit);
    auto pinned = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(pinned.has_value());

    // The parent diverges through CoW onto the other slot.
    wrote = false;
    parent.write(0, 32, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    drainChunkOps(bed);
    ASSERT_NE(ns.chunkAt(0, 1, 0).value().slot, pinned->slot);
    ASSERT_TRUE(ns.chunksOn(pinned->slot).empty());

    auto *spare =
        bed.sim().make<ssd::SsdDevice>(bed.sim(), "spare", bed.config().ssd);
    std::optional<core::HotPlugManager::Report> rep;
    bed.controller().hotPlug().replaceLossless(
        pinned->slot, *spare,
        [&](core::HotPlugManager::Report r) { rep = r; });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return rep.has_value(); },
                               sim::seconds(30)));
    EXPECT_FALSE(rep->ok);
    EXPECT_EQ(rep->evacuatedChunks, 0u);
    EXPECT_EQ(ns.chunkRefs(pinned->slot, pinned->chunk), 1u);

    // A clone of the snapshot still reads the pinned image.
    pcie::FunctionId clone_fn = bed.claimVf();
    auto clone_nsid = ns.clone(*snap, clone_fn, core::QosLimits());
    ASSERT_TRUE(clone_nsid.has_value());
    host::NvmeDriver &cdrv = bed.attachDriver(clone_fn, *clone_nsid);
    fuzz::OracleDevice &clone = makeChunkOracle(bed, cdrv, log, 7);
    clone.adoptLineage(lineage);
    bool read_ok = false;
    clone.read(0, 32, [&](bool ok) { read_ok = ok; });
    await(bed, [&] { return read_ok; });
    EXPECT_GE(clone.verifiedBlocks(), 32u);
    ns.checkRefInvariants();
}

// Chunk CoW under live tenant I/O: a closed-loop workload hammers a
// thin namespace while a snapshot pins it mid-stream; every post-pin
// write diverts through the CoW copy path (writes held, copied,
// remapped) and the oracle verifies every read across the cutover.
TEST(Snapshots, CowUnderLiveTenantIo)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();
    core::TargetController &tc = bed.engine().targetController();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(256);
    fuzz::OracleDevice &oracle = makeChunkOracle(bed, drv, log, 1);

    fuzz::TenantSpec spec;
    spec.iodepth = 8;
    spec.readRatio = 0.4;
    spec.trimProb = 0.05;
    spec.maxIoBlocks = 16;
    auto &wl = *bed.sim().make<fuzz::TenantWorkload>(
        bed.sim(), "tenant", oracle, sim::Rng(1234), spec);
    wl.start();
    bed.sim().runFor(sim::milliseconds(5));

    // Pin mid-stream. Chunk ops hold the namespace locked now and
    // then, so retry until the verb lands.
    std::optional<std::uint32_t> snap;
    await(bed, [&] {
        snap = ns.snapshot(0, 1);
        return snap.has_value();
    });
    bed.sim().runFor(sim::milliseconds(10));
    wl.stop(nullptr);
    await(bed, [&] { return wl.outstanding() == 0; });
    drainChunkOps(bed);

    // The post-pin writes really went through CoW, and the data all
    // verified (any violation would have panicked mid-run).
    EXPECT_GT(tc.cowTriggers(), 0u);
    EXPECT_GT(oracle.writes(), 0u);
    EXPECT_GT(oracle.verifiedBlocks(), 0u);
    ns.checkRefInvariants();
    ASSERT_TRUE(ns.deleteSnapshot(*snap));
    ns.checkRefInvariants();
}

// Refcount bookkeeping across the whole lifecycle, strictly checked
// at every quiesced point: snapshot pins, clone pins, CoW splits
// ownership, deletes unpin, and the pool never leaks a chunk.
TEST(Snapshots, RefcountsBalanceAcrossLifecycle)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();
    host::NvmeDriver &drv = bed.attachTenant(
        0, sim::mib(8), NamespaceManager::Policy::RoundRobin,
        core::QosLimits(), nullptr, -1, /*thin=*/true);
    fuzz::OpLog log(64);
    fuzz::OracleDevice &oracle = makeChunkOracle(bed, drv, log, 1);

    bool wrote = false;
    oracle.write(0, 8, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    auto alloc = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 1u);
    ns.checkRefInvariants();

    auto snap1 = ns.snapshot(0, 1);
    ASSERT_TRUE(snap1.has_value());
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 2u);
    auto snap2 = ns.snapshot(0, 1);
    ASSERT_TRUE(snap2.has_value());
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 3u);
    ns.checkRefInvariants();

    // Parent overwrite: CoW separates the namespace from the pins.
    wrote = false;
    oracle.write(0, 8, [&](bool ok) { wrote = ok; });
    await(bed, [&] { return wrote; });
    drainChunkOps(bed);
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 2u);
    auto moved = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(moved.has_value());
    EXPECT_EQ(ns.chunkRefs(moved->slot, moved->chunk), 1u);
    ns.checkRefInvariants();

    ASSERT_TRUE(ns.deleteSnapshot(*snap1));
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 1u);
    ASSERT_TRUE(ns.deleteSnapshot(*snap2));
    EXPECT_EQ(ns.chunkRefs(alloc->slot, alloc->chunk), 0u);
    ns.checkRefInvariants();
    EXPECT_EQ(ns.occupancy()[0].used, 1u); // only the CoW'd chunk
}

// A CoW source drains after its flip while pre-flip I/O may still run
// on it, yet the snapshot keeps naming it: a clone of that snapshot
// taken mid-drain must be able to hold it too, and the census stays
// exact through the flip, the clone and the drain's end.
TEST(Snapshots, CloneDuringACowSourceDrainHoldsIt)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();
    bed.attachTenant(0, sim::mib(8));
    auto src = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(src.has_value());
    auto snap = ns.snapshot(0, 1);
    ASSERT_TRUE(snap.has_value());

    // The CoW cutover's transition, without the copy or the drain; a
    // job holds its namespace locked from reservation to drain.
    ASSERT_TRUE(ns.lockNs(0, 1));
    auto dst = ns.takeChunk(src->slot);
    ASSERT_TRUE(dst.has_value());
    ns.flip(core::MoveKind::Cow, 0, 1, 0, *src, {src->slot, *dst});
    EXPECT_EQ(ns.chunkRefs(src->slot, src->chunk), 1u); // the snapshot
    ns.checkRefInvariants();

    ASSERT_TRUE(ns.clone(*snap, bed.claimVf()).has_value());
    EXPECT_EQ(ns.chunkRefs(src->slot, src->chunk), 2u);
    ns.checkRefInvariants();

    ns.releaseChunk(src->slot, src->chunk); // the drain ends
    ns.unlockNs(0, 1);
    EXPECT_EQ(ns.chunkRefs(src->slot, src->chunk), 2u);
    ns.checkRefInvariants();
}

// Only the running job reserves or drains a chunk: once no namespace
// is locked, one leaked reservation or undrained source fails the
// census.
TEST(Snapshots, CensusFailsOnALeakedReservationOrDrain)
{
    harness::BmStoreTestbed bed(thinConfig());
    NamespaceManager &ns = bed.controller().namespaces();
    bed.attachTenant(0, sim::mib(8));
    auto src = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(src.has_value());

    ASSERT_TRUE(ns.lockNs(0, 1));
    auto dst = ns.takeChunk(src->slot);
    ASSERT_TRUE(dst.has_value());
    ns.checkRefInvariants(); // the job's reservation
    ns.unlockNs(0, 1);
    EXPECT_PANIC(ns.checkRefInvariants());

    ASSERT_TRUE(ns.lockNs(0, 1));
    ns.flip(core::MoveKind::Move, 0, 1, 0, *src, {src->slot, *dst});
    ns.checkRefInvariants(); // the job's draining source
    ns.unlockNs(0, 1);
    EXPECT_PANIC(ns.checkRefInvariants());

    ns.releaseChunk(src->slot, src->chunk);
    ns.checkRefInvariants();
}
