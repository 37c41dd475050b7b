/**
 * @file
 * Remote-storage extension tests (§VI-D future work): network link
 * timing, the NVMe-oF-style initiator/target pair, and — the point —
 * a remote volume served through an *unchanged* BM-Store engine.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "remote/network.hh"
#include "remote/remote_device.hh"
#include "remote/storage_server.hh"
#include "tests/test_util.hh"
#include "workload/fio.hh"

using namespace bms;

TEST(NetworkLink, SerializationAndPropagation)
{
    sim::Simulator sim(3);
    remote::NetworkProfile prof;
    auto *link = sim.make<remote::NetworkLink>(sim, "net", prof);
    sim::Tick arrived = 0;
    link->send(0, 4096, [&] { arrived = sim.now(); });
    sim.runAll();
    sim::Tick expect = prof.bandwidth.delayFor(4096 + 128) +
                       prof.propagation;
    EXPECT_EQ(arrived, expect);
    EXPECT_EQ(link->bytesCarried(0), 4096u);
    EXPECT_EQ(link->bytesCarried(1), 0u);
}

TEST(NetworkLink, DirectionsAreIndependent)
{
    sim::Simulator sim(3);
    auto *link = sim.make<remote::NetworkLink>(sim, "net");
    sim::Tick t0 = 0, t1 = 0;
    link->send(0, 1 << 20, [&] { t0 = sim.now(); });
    link->send(1, 1 << 20, [&] { t1 = sim.now(); });
    sim.runAll();
    EXPECT_EQ(t0, t1); // full duplex: no cross-direction queueing
}

namespace {

/** Host + one remote volume attached natively (no BM-Store). */
struct NativeRemote
{
    sim::Simulator sim{77};
    host::HostSystem *host;
    remote::StorageServer *server;
    remote::NetworkLink *link;
    remote::RemoteNvmeDevice *dev;
    host::NvmeDriver *driver = nullptr;

    NativeRemote()
    {
        host = sim.make<host::HostSystem>(sim, "client");
        remote::StorageServer::Config scfg;
        server = sim.make<remote::StorageServer>(sim, "target", scfg);
        int vol = server->addVolume({0, 0, sim::gib(512)});
        link = sim.make<remote::NetworkLink>(sim, "net");
        dev = sim.make<remote::RemoteNvmeDevice>(sim, "rvol", *link,
                                                 *server, vol);
        pcie::RootPort &port = host->addSlot(4);
        port.attach(*dev);
        host::NvmeDriver::Config dc;
        auto *drv = sim.make<host::NvmeDriver>(
            sim, "nvme", host->memory(), host->irq(), port,
            host->cpus(), 0, dc);
        bool ready = false;
        drv->init([&ready] { ready = true; });
        EXPECT_TRUE(test::runUntil(sim, [&] { return ready; }));
        driver = drv;
    }
};

} // namespace

TEST(RemoteVolume, AdvertisesVolumeCapacity)
{
    NativeRemote r;
    EXPECT_EQ(r.driver->capacityBytes(), sim::gib(512));
}

TEST(RemoteVolume, ReadPaysNetworkRoundTrip)
{
    NativeRemote r;
    workload::FioJobSpec spec = workload::fioRandR1();
    spec.runTime = sim::milliseconds(100);
    workload::FioResult res = harness::runFio(r.sim, *r.driver, spec);
    // Local path is ~77 us; the wire adds ~2x10 us propagation plus
    // serialization and target-side processing.
    EXPECT_GT(res.avgLatencyUs(), 95.0);
    EXPECT_LT(res.avgLatencyUs(), 115.0);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_GT(r.server->requestsServed(), 0u);
}

TEST(RemoteVolume, SequentialBandwidthCappedByWire)
{
    NativeRemote r;
    workload::FioJobSpec spec = workload::fioSeqR256();
    spec.runTime = sim::milliseconds(300);
    workload::FioResult res = harness::runFio(r.sim, *r.driver, spec);
    // 25 GbE effective ≈ 2.9 GB/s < the disk's 3.3 GB/s.
    EXPECT_NEAR(res.mbPerSec, 2900.0, 120.0);
}

TEST(RemoteVolume, WritesTraverseForwardDirection)
{
    NativeRemote r;
    bool done = false;
    host::BlockRequest wr;
    wr.op = host::BlockRequest::Op::Write;
    wr.offset = 0;
    wr.len = 65536;
    wr.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        done = true;
    };
    r.driver->submit(std::move(wr));
    EXPECT_TRUE(test::runUntil(r.sim, [&] { return done; }));
    EXPECT_GE(r.link->bytesCarried(0), 65536u); // payload went out
    EXPECT_LT(r.link->bytesCarried(1), 1024u);  // only the completion
}

// The volume bound is checked at the initiator: the command completes
// with an error without a request going on the wire.
TEST(RemoteVolume, OutOfRangeFailsBeforeTheWire)
{
    NativeRemote r;
    std::uint64_t sent = r.link->messagesCarried(0);
    bool done = false;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = sim::gib(512);
    rd.len = 4096;
    rd.done = [&](bool ok) {
        EXPECT_FALSE(ok);
        done = true;
    };
    r.driver->submit(std::move(rd));
    EXPECT_TRUE(test::runUntil(r.sim, [&] { return done; }));
    EXPECT_EQ(r.link->messagesCarried(0), sent);
}

// The initiator's own accounting must agree with the link's: every
// request/response payload byte it reports was actually carried.
TEST(RemoteProtocol, WireFramingMatchesLinkAccounting)
{
    NativeRemote r;
    workload::FioJobSpec spec = workload::fioRandR1();
    spec.runTime = sim::milliseconds(50);
    workload::FioResult res = harness::runFio(r.sim, *r.driver, spec);
    EXPECT_EQ(res.errors, 0u);

    bool done = false;
    host::BlockRequest wr;
    wr.op = host::BlockRequest::Op::Write;
    wr.offset = 0;
    wr.len = 256 * 1024;
    wr.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        done = true;
    };
    r.driver->submit(std::move(wr));
    ASSERT_TRUE(test::runUntil(r.sim, [&] { return done; }));

    EXPECT_GT(r.dev->ios(), 0u);
    EXPECT_EQ(r.dev->txBytes(), r.link->bytesCarried(0));
    EXPECT_EQ(r.dev->rxBytes(), r.link->bytesCarried(1));
    // Request/response pairing: one message each way per attempt.
    EXPECT_EQ(r.link->messagesCarried(0), r.link->messagesCarried(1));
    EXPECT_EQ(r.dev->timeouts(), 0u);
    EXPECT_EQ(r.dev->staleDrops(), 0u);
}

// A lost request is retried transparently: one dropped message costs
// a timeout, not an error.
TEST(RemoteProtocol, DroppedRequestIsRetried)
{
    NativeRemote r;
    r.server->dropNext(1);
    bool done = false, ok = false;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = 0;
    rd.len = 4096;
    rd.done = [&](bool o) {
        ok = o;
        done = true;
    };
    r.driver->submit(std::move(rd));
    ASSERT_TRUE(test::runUntil(r.sim, [&] { return done; },
                               sim::seconds(2)));
    EXPECT_TRUE(ok);
    EXPECT_EQ(r.dev->timeouts(), 1u);
    EXPECT_EQ(r.dev->retries(), 1u);
    EXPECT_EQ(r.dev->exhausted(), 0u);
    EXPECT_EQ(r.server->requestsDropped(), 1u);
}

// A dead node surfaces as a command error after bounded retries —
// never as a hang, and never as a success.
TEST(RemoteProtocol, DeadNodeExhaustsRetriesIntoCommandError)
{
    NativeRemote r;
    r.server->setDown(true);
    bool done = false, ok = true;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = 0;
    rd.len = 4096;
    rd.done = [&](bool o) {
        ok = o;
        done = true;
    };
    sim::Tick start = r.sim.now();
    r.driver->submit(std::move(rd));
    // 1 attempt + 2 retries at 250 ms each: bounded, well under 2 s.
    ASSERT_TRUE(test::runUntil(r.sim, [&] { return done; },
                               sim::seconds(2)));
    EXPECT_FALSE(ok);
    EXPECT_EQ(r.dev->timeouts(), 3u);
    EXPECT_EQ(r.dev->retries(), 2u);
    EXPECT_EQ(r.dev->exhausted(), 1u);
    EXPECT_LT(r.sim.now() - start, sim::seconds(1));

    // The node comes back: the very next command succeeds.
    r.server->setDown(false);
    done = false;
    host::BlockRequest rd2;
    rd2.op = host::BlockRequest::Op::Read;
    rd2.offset = 0;
    rd2.len = 4096;
    rd2.done = [&](bool o) {
        ok = o;
        done = true;
    };
    r.driver->submit(std::move(rd2));
    ASSERT_TRUE(test::runUntil(r.sim, [&] { return done; },
                               sim::seconds(2)));
    EXPECT_TRUE(ok);
}

TEST(RemoteBehindBmStore, EngineServesRemoteVolumeUnchanged)
{
    // The §VI-D scenario: a BM-Store tenant whose namespace lives on
    // a remote server — same VFs, same mapping, same management.
    // Slot 0 keeps a local SSD; slot 1 becomes remote via hot-plug,
    // which also proves the management plane works on remote media.
    harness::TestbedConfig cfg2;
    cfg2.ssdCount = 2;
    harness::BmStoreTestbed bed2(cfg2);
    auto &sim = bed2.sim();
    remote::StorageServer::Config scfg;
    auto *server = sim.make<remote::StorageServer>(sim, "target", scfg);
    int vol = server->addVolume({0, 0, sim::gib(1024)});
    auto *link = sim.make<remote::NetworkLink>(sim, "net");
    auto *rdev = sim.make<remote::RemoteNvmeDevice>(sim, "rvol", *link,
                                                    *server, vol);

    bool replaced = false;
    bed2.controller().hotPlug().replace(
        1, *rdev, [&](core::HotPlugManager::Report rep) {
            EXPECT_TRUE(rep.ok);
            replaced = true;
        });
    ASSERT_TRUE(test::runUntil(sim, [&] { return replaced; },
                               sim::seconds(20)));
    EXPECT_EQ(bed2.engine().adaptor(1).capacityBytes(), sim::gib(1024));

    // A tenant namespace dedicated to the remote slot, exercised end
    // to end through the standard driver.
    host::NvmeDriver &disk = bed2.attachTenant(
        0, sim::gib(128), core::NamespaceManager::Policy::Dedicate,
        core::QosLimits(), nullptr, /*pin_slot=*/1);
    workload::FioJobSpec spec = workload::fioRandR1();
    spec.runTime = sim::milliseconds(100);
    workload::FioResult res = harness::runFio(sim, disk, spec);
    EXPECT_EQ(res.errors, 0u);
    // Local ~80 us + wire round trip.
    EXPECT_GT(res.avgLatencyUs(), 95.0);
    EXPECT_LT(res.avgLatencyUs(), 125.0);
    EXPECT_GT(server->requestsServed(), 100u);
}

namespace {

/** BM-Store card with local SSDs plus a remote tier, functional data. */
harness::TestbedConfig
tierConfig(int nodes, int local_ssds = 2,
           std::uint64_t chunk_bytes = sim::mib(1))
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = local_ssds;
    cfg.ssd.functionalData = true;
    cfg.chunkBytes = chunk_bytes;
    cfg.remoteNodes = nodes;
    cfg.volumesPerNode = 1;
    cfg.remoteServer.ssd.functionalData = true;
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

// The tentpole round trip: a chunk spills to a remote node, reads
// traverse the wire, a write while spilled is mirrored to the local
// shadow, and a promote brings every byte home intact.
TEST(Tiering, SpillReadPromoteRoundTripKeepsEveryByte)
{
    harness::BmStoreTestbed bed(tierConfig(1));
    auto &sim = bed.sim();
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(2));
    auto &mem = bed.host().memory();
    auto &ns = bed.controller().namespaces();
    core::TieringManager &tier = bed.controller().tiering();
    int rslot = bed.remoteSlot(0, 0);

    constexpr std::uint32_t kLen = 64 * 1024;
    auto head = pattern(kLen, 0x11);
    std::uint64_t buf = mem.alloc(kLen);
    mem.write(buf, kLen, head.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, kLen, buf));

    auto before = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(before.has_value());
    std::uint8_t shadow_slot = before->slot;
    EXPECT_FALSE(bed.engine().isRemoteSlot(shadow_slot));

    // Spill chunk 0 out to the node.
    bool done = false, ok = false;
    tier.spill(0, 1, 0, -1, [&](bool o) {
        ok = o;
        done = true;
    });
    ASSERT_TRUE(
        test::runUntil(sim, [&] { return done; }, sim::seconds(10)));
    ASSERT_TRUE(ok);
    EXPECT_EQ(tier.spills(), 1u);
    ASSERT_TRUE(tier.isSpilled(0, 1, 0));
    auto spilled_at = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(spilled_at.has_value());
    EXPECT_EQ(int(spilled_at->slot), rslot);
    // The shadow stayed allocated and the gate mirrors into it.
    EXPECT_EQ(tier.spilled()[0].shadowSlot, shadow_slot);
    EXPECT_EQ(bed.engine().migrationGate().tierMirrorCount(), 1u);

    // Reads now traverse the network.
    std::uint64_t served = bed.server(0).requestsServed();
    std::uint64_t rbuf = mem.alloc(kLen);
    std::vector<std::uint8_t> got(kLen);
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, kLen, rbuf));
    mem.read(rbuf, kLen, got.data());
    EXPECT_EQ(got, head);
    EXPECT_GT(bed.server(0).requestsServed(), served);

    // A write while spilled lands remotely AND on the shadow.
    auto live = pattern(4096, 0x22);
    std::uint64_t lbuf = mem.alloc(4096);
    mem.write(lbuf, 4096, live.data());
    std::uint64_t mirrored =
        bed.engine().migrationGate().tierMirroredWrites();
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 4096, 4096, lbuf));
    EXPECT_GT(bed.engine().migrationGate().tierMirroredWrites(), mirrored);

    // Promote back onto the shadow.
    done = false;
    tier.promote(0, 1, 0, [&](bool o) {
        ok = o;
        done = true;
    });
    ASSERT_TRUE(
        test::runUntil(sim, [&] { return done; }, sim::seconds(10)));
    ASSERT_TRUE(ok);
    EXPECT_EQ(tier.promotes(), 1u);
    EXPECT_FALSE(tier.isSpilled(0, 1, 0));
    EXPECT_EQ(bed.engine().migrationGate().tierMirrorCount(), 0u);
    auto after = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->slot, shadow_slot);
    // The remote chunk went back to the node's free pool.
    auto occ = ns.occupancy();
    for (const auto &o : occ) {
        if (o.slot == rslot) {
            EXPECT_EQ(o.used, 0u);
        }
    }

    // Every byte survives the round trip: head minus the overwrite,
    // the while-spilled write, the tail.
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, kLen, rbuf));
    mem.read(rbuf, kLen, got.data());
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + 4096, head.begin()));
    EXPECT_TRUE(std::equal(got.begin() + 4096, got.begin() + 8192,
                           live.begin()));
    EXPECT_TRUE(std::equal(got.begin() + 8192, got.end(),
                           head.begin() + 8192));
}

// Reads keep flowing while the spill cutover happens mid-stream: no
// errors, no stalls, correct data before and after the flip.
TEST(Tiering, CutoverIsTransparentToReadsInFlight)
{
    harness::BmStoreTestbed bed(tierConfig(1));
    auto &sim = bed.sim();
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(2));
    auto &mem = bed.host().memory();
    core::TieringManager &tier = bed.controller().tiering();

    auto data = pattern(4096, 0x33);
    std::uint64_t wbuf = mem.alloc(4096);
    mem.write(wbuf, 4096, data.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, 4096, wbuf));

    // Continuous read stream: re-submit as each read completes.
    int completed = 0, errors = 0;
    bool stop = false;
    std::uint64_t rbuf = mem.alloc(4096);
    std::function<void()> submitRead = [&] {
        host::BlockRequest rd;
        rd.op = host::BlockRequest::Op::Read;
        rd.offset = 0;
        rd.len = 4096;
        rd.dataAddr = rbuf;
        rd.done = [&](bool ok) {
            ++completed;
            if (!ok)
                ++errors;
            std::vector<std::uint8_t> got(4096);
            mem.read(rbuf, 4096, got.data());
            EXPECT_EQ(got, data);
            if (!stop)
                submitRead();
        };
        disk.submit(std::move(rd));
    };
    submitRead();

    bool spilled = false, ok = false;
    tier.spill(0, 1, 0, -1, [&](bool o) {
        ok = o;
        spilled = true;
    });
    ASSERT_TRUE(
        test::runUntil(sim, [&] { return spilled; }, sim::seconds(10)));
    ASSERT_TRUE(ok);
    // Let a few post-cutover (remote) reads complete, then stop.
    int target = completed + 8;
    ASSERT_TRUE(test::runUntil(sim, [&] { return completed >= target; },
                               sim::seconds(5)));
    stop = true;
    sim.runUntil(sim.now() + sim::milliseconds(5));
    EXPECT_EQ(errors, 0);
    EXPECT_GT(completed, 8);
    EXPECT_GT(bed.server(0).requestsServed(), 0u);
}

// Node loss: the shadow takes over atomically (zero data loss), then
// the chunk re-spills to the surviving node — all driven through the
// out-of-band failNode verb, observable via tierStats.
TEST(Tiering, NodeLossRecoversOntoShadowThenRespills)
{
    harness::BmStoreTestbed bed(tierConfig(2));
    auto &sim = bed.sim();
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(2));
    auto &mem = bed.host().memory();
    auto &ns = bed.controller().namespaces();
    core::TieringManager &tier = bed.controller().tiering();
    core::Eid ctrl = bed.controller().endpoint().eid();

    constexpr std::uint32_t kLen = 32 * 1024;
    auto base = pattern(kLen, 0x44);
    std::uint64_t buf = mem.alloc(kLen);
    mem.write(buf, kLen, base.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, kLen, buf));

    // Spill to node 0 explicitly.
    bool done = false, ok = false;
    tier.spill(0, 1, 0, bed.remoteSlot(0, 0), [&](bool o) {
        ok = o;
        done = true;
    });
    ASSERT_TRUE(
        test::runUntil(sim, [&] { return done; }, sim::seconds(10)));
    ASSERT_TRUE(ok);

    // Write after the spill: the shadow must receive it too.
    auto live = pattern(4096, 0x55);
    std::uint64_t lbuf = mem.alloc(4096);
    mem.write(lbuf, 4096, live.data());
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Write, 0, 4096, lbuf));

    // Kill node 0 via the management plane.
    done = false;
    core::MiFailNodeResult res;
    bed.console().failNode(ctrl, 0, [&](core::MiFailNodeResult r) {
        res = r;
        done = true;
    });
    ASSERT_TRUE(
        test::runUntil(sim, [&] { return done; }, sim::seconds(30)));
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.recovered, 1u);
    EXPECT_EQ(res.respilled, 1u); // node 1 survived
    EXPECT_TRUE(bed.server(0).down());
    EXPECT_TRUE(tier.nodeDown(0));

    // The chunk now lives on node 1, with a fresh local shadow.
    ASSERT_TRUE(tier.isSpilled(0, 1, 0));
    auto at = ns.chunkAt(0, 1, 0);
    ASSERT_TRUE(at.has_value());
    EXPECT_EQ(int(at->slot), bed.remoteSlot(1, 0));

    // Zero data loss: the post-spill write and the base both survive.
    std::uint64_t rbuf = mem.alloc(kLen);
    std::vector<std::uint8_t> got(kLen);
    ASSERT_TRUE(
        doIo(bed, disk, host::BlockRequest::Op::Read, 0, kLen, rbuf));
    mem.read(rbuf, kLen, got.data());
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + 4096, live.begin()));
    EXPECT_TRUE(std::equal(got.begin() + 4096, got.end(),
                           base.begin() + 4096));

    // tierStats sees the whole story.
    done = false;
    std::optional<core::MiTierStats> stats;
    bed.console().tierStats(ctrl, [&](std::optional<core::MiTierStats> s) {
        stats = std::move(s);
        done = true;
    });
    ASSERT_TRUE(test::runUntil(sim, [&] { return done; }));
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->spills, 2u); // original + re-spill
    EXPECT_EQ(stats->nodeLosses, 1u);
    EXPECT_EQ(stats->chunksRecovered, 1u);
    EXPECT_EQ(stats->chunksRespilled, 1u);
    ASSERT_EQ(stats->spilled.size(), 1u);
    EXPECT_EQ(stats->spilled[0].chunkIndex, 0u);
    EXPECT_EQ(int(stats->spilled[0].remoteSlot), bed.remoteSlot(1, 0));
}

// The automatic policy spills cold chunks and promotes them back when
// they heat up, driven by the decayed per-chunk heat in the monitor —
// programmed entirely through the setTierPolicy verb.
TEST(Tiering, HeatDrivenPolicySpillsColdAndPromotesHot)
{
    harness::TestbedConfig cfg = tierConfig(1);
    cfg.ctrl.monitorPeriod = sim::milliseconds(10);
    harness::BmStoreTestbed bed(cfg);
    auto &sim = bed.sim();
    host::NvmeDriver &disk = bed.attachTenant(0, sim::mib(2));
    core::TieringManager &tier = bed.controller().tiering();
    core::Eid ctrl = bed.controller().endpoint().eid();

    // Policy: spill under 1 MB/s, promote over 8 MB/s, every 20 ms.
    bool done = false, ok = false;
    bed.console().setTierPolicy(ctrl, 1.0, 8.0,
                                sim::milliseconds(20), [&](bool o) {
                                    ok = o;
                                    done = true;
                                });
    ASSERT_TRUE(test::runUntil(sim, [&] { return done; }));
    ASSERT_TRUE(ok);
    EXPECT_EQ(tier.policy().promoteMbpsThreshold, 8.0);

    // Idle tenant: both chunks are cold; the policy spills them.
    ASSERT_TRUE(test::runUntil(
        sim, [&] { return tier.spilled().size() == 2; },
        sim::seconds(30)));

    // Hammer chunk 0 with reads until the policy promotes it back.
    workload::FioJobSpec spec = workload::fioRandR1();
    spec.regionBytes = sim::mib(1);
    spec.runTime = sim::seconds(5);
    auto *fio = sim.make<workload::FioRunner>(sim, "heat", disk, spec);
    fio->start();
    ASSERT_TRUE(test::runUntil(
        sim, [&] { return !tier.isSpilled(0, 1, 0); }, sim::seconds(5)));
    EXPECT_GE(tier.promotes(), 1u);
    test::runUntil(sim, [&] { return fio->finished(); }, sim::seconds(7));

    // Malformed policy (promote < spill) is rejected on the wire.
    done = false;
    bed.console().setTierPolicy(ctrl, 8.0, 1.0, 0, [&](bool o) {
        ok = o;
        done = true;
    });
    ASSERT_TRUE(test::runUntil(sim, [&] { return done; }));
    EXPECT_FALSE(ok);
}
