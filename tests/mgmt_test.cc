/**
 * @file
 * Out-of-band management tests: MCTP packetization/reassembly,
 * NVMe-MI codec, wire serialization, and full console ↔
 * BMS-Controller round trips over the VDM channel.
 */

#include <string>
#include <tuple>
#include <type_traits>
#include <typeinfo>

#include <gtest/gtest.h>

#include "core/mgmt/mctp.hh"
#include "core/mgmt/nvme_mi.hh"
#include "core/mgmt/wire.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"
#include "workload/fio.hh"

using namespace bms;
using namespace bms::core;

// ---------------------------------------------------------------------------
// wire

TEST(Wire, RoundTripAllTypes)
{
    wire::Writer w;
    w(std::uint8_t{0xAB}, std::uint16_t{0xBEEF}, std::uint32_t{0xDEADBEEF},
      std::uint64_t{0x0123456789ABCDEFull}, 3.14159,
      std::string("bm-store"));
    auto buf = w.take();

    wire::Reader r(buf);
    std::uint8_t a = 0;
    std::uint16_t b = 0;
    std::uint32_t c = 0;
    std::uint64_t d = 0;
    double e = 0;
    std::string f;
    r(a, b, c, d, e, f);
    EXPECT_EQ(a, 0xAB);
    EXPECT_EQ(b, 0xBEEF);
    EXPECT_EQ(c, 0xDEADBEEFu);
    EXPECT_EQ(d, 0x0123456789ABCDEFull);
    EXPECT_DOUBLE_EQ(e, 3.14159);
    EXPECT_EQ(f, "bm-store");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, ReaderBoundsChecked)
{
    std::vector<std::uint8_t> tiny = {1, 2};
    wire::Reader r(tiny);
    std::uint32_t v = 0;
    r(v);
    EXPECT_EQ(v, 0u);
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// NVMe-MI codec

TEST(NvmeMi, MessageRoundTrip)
{
    MiMessage m;
    m.kind = MiMessage::Kind::Response;
    m.opcode = MiOpcode::VendorIoStats;
    m.status = MiStatus::InternalError;
    m.tag = 0x1234;
    m.payload = {9, 8, 7};
    auto raw = m.serialize();

    MiMessage out;
    ASSERT_TRUE(MiMessage::parse(raw, out));
    EXPECT_EQ(out.kind, MiMessage::Kind::Response);
    EXPECT_EQ(out.opcode, MiOpcode::VendorIoStats);
    EXPECT_EQ(out.status, MiStatus::InternalError);
    EXPECT_EQ(out.tag, 0x1234);
    EXPECT_EQ(out.payload, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(NvmeMi, ParseRejectsShortMessage)
{
    MiMessage out;
    EXPECT_FALSE(MiMessage::parse({1, 2, 3}, out));
}

// ---------------------------------------------------------------------------
// NVMe-MI payload field lists

namespace {

/**
 * Gives every field of a payload a distinct non-default value by
 * walking the same field list the codec walks; lists get two entries.
 */
struct Filler
{
    unsigned next = 100;

    template <class... Ts>
    void
    operator()(Ts &&...fields)
    {
        (fill(fields), ...);
    }

    template <class T>
    void
    fill(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            v = true;
        } else if constexpr (wire::kIsScalar<T>) {
            v = static_cast<T>(next++);
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = "rev" + std::to_string(next++);
        } else if constexpr (wire::kIsList<T>) {
            v.items.resize(2);
            for (auto &item : v.items)
                fill(item);
        } else {
            v.io(*this);
        }
    }
};

template <class T>
T
filled()
{
    T v{};
    Filler f;
    f.fill(v);
    return v;
}

/** Visit a default instance of every request and response payload. */
template <class Fn>
void
forEachPayload(Fn fn)
{
    std::apply([&](auto... payloads) { (fn(payloads), ...); },
               std::tuple<MiEmpty, MiCreateNamespaceReq, MiNsRef,
                          MiSetQosReq, MiFn, MiSlot, MiUpgradeReq,
                          MiHotPlugReq, MiMigrateReq, MiTierPolicyReq,
                          MiNode, MiCloneReq, MiSnapId, MiNsid, MiHealth,
                          MiDf, MiSnapshotList, MiIoStats, MiUpgradeResult,
                          MiHotPlugResult, MiMigrateResult,
                          MiEvacuateResult, MiTierStats, MiFailNodeResult,
                          MiMigrations>{});
}

} // namespace

TEST(MiPayload, EveryPayloadRoundTrips)
{
    forEachPayload([](auto empty) {
        using T = decltype(empty);
        SCOPED_TRACE(typeid(T).name());
        std::vector<std::uint8_t> bytes = wire::encode(filled<T>());
        T out;
        ASSERT_TRUE(wire::decode(bytes, out));
        EXPECT_EQ(wire::encode(out), bytes);
        if (!bytes.empty()) {
            EXPECT_NE(wire::encode(empty), bytes); // every field moved
        }
    });
}

TEST(MiPayload, OneByteShortDoesNotDecode)
{
    forEachPayload([](auto empty) {
        using T = decltype(empty);
        SCOPED_TRACE(typeid(T).name());
        std::vector<std::uint8_t> bytes = wire::encode(filled<T>());
        if (bytes.empty())
            return; // MiEmpty
        bytes.pop_back();
        T out;
        EXPECT_FALSE(wire::decode(bytes, out));
    });
}

TEST(MiPayload, ShortListKeepsWholeEntries)
{
    MiDf df;
    for (std::uint8_t s = 0; s < 3; ++s) {
        df.slots.push_back(filled<MiDfEntry>());
        df.slots.back().slot = s;
    }
    std::vector<std::uint8_t> bytes = wire::encode(df);
    std::size_t entry = (bytes.size() - 1) / 3;
    bytes.resize(1 + 2 * entry + entry / 2); // cut inside the third

    MiDf out;
    EXPECT_FALSE(wire::decode(bytes, out));
    ASSERT_EQ(out.slots.size(), 2u);
    EXPECT_EQ(out.slots[1].slot, 1);
    EXPECT_EQ(wire::encode(out.slots[1]), wire::encode(df.slots[1]));
}

// ---------------------------------------------------------------------------
// MCTP

namespace {

struct MctpFixture
{
    sim::Simulator sim{11};
    MctpChannel *channel = sim.make<MctpChannel>(sim, "ch");
    MctpEndpoint *a = sim.make<MctpEndpoint>(sim, "a", 0x08);
    MctpEndpoint *b = sim.make<MctpEndpoint>(sim, "b", 0x20);

    MctpFixture()
    {
        channel->bind(*a);
        channel->bind(*b);
    }
};

} // namespace

TEST(Mctp, SmallMessageSinglePacket)
{
    MctpFixture f;
    std::vector<std::uint8_t> got;
    f.b->setHandler([&](Eid src, MctpMsgType type,
                        std::vector<std::uint8_t> msg) {
        EXPECT_EQ(src, 0x08);
        EXPECT_EQ(type, MctpMsgType::NvmeMi);
        got = std::move(msg);
    });
    f.a->sendMessage(0x20, MctpMsgType::NvmeMi, {1, 2, 3});
    f.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(f.channel->packetsCarried(), 1u);
}

TEST(Mctp, LargeMessageFragmentsAndReassembles)
{
    MctpFixture f;
    std::vector<std::uint8_t> big(1000);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> got;
    f.b->setHandler([&](Eid, MctpMsgType, std::vector<std::uint8_t> msg) {
        got = std::move(msg);
    });
    f.a->sendMessage(0x20, MctpMsgType::NvmeMi, big);
    f.sim.runFor(sim::milliseconds(5));
    EXPECT_EQ(got, big);
    // 1000 bytes / 64-byte baseline MTU → 16 packets.
    EXPECT_EQ(f.channel->packetsCarried(), 16u);
    EXPECT_EQ(f.b->reassemblyErrors(), 0u);
}

TEST(Mctp, BidirectionalTraffic)
{
    MctpFixture f;
    int a_got = 0, b_got = 0;
    f.a->setHandler(
        [&](Eid, MctpMsgType, std::vector<std::uint8_t>) { ++a_got; });
    f.b->setHandler(
        [&](Eid, MctpMsgType, std::vector<std::uint8_t>) { ++b_got; });
    for (int i = 0; i < 5; ++i) {
        f.a->sendMessage(0x20, MctpMsgType::Control, {1});
        f.b->sendMessage(0x08, MctpMsgType::Control, {2});
    }
    f.sim.runFor(sim::milliseconds(5));
    EXPECT_EQ(a_got, 5);
    EXPECT_EQ(b_got, 5);
}

TEST(Mctp, OutOfSequencePacketDropsMessage)
{
    MctpFixture f;
    int delivered = 0;
    f.b->setHandler(
        [&](Eid, MctpMsgType, std::vector<std::uint8_t>) { ++delivered; });
    // Hand-craft a middle fragment without its SOM.
    MctpPacket pkt;
    pkt.dest = 0x20;
    pkt.src = 0x08;
    pkt.som = false;
    pkt.eom = true;
    pkt.seq = 2;
    pkt.msgType = MctpMsgType::NvmeMi;
    pkt.payload = {1, 2, 3};
    f.b->receivePacket(pkt);
    f.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(f.b->reassemblyErrors(), 1u);
}

TEST(Mctp, ChannelTimingIsNonZero)
{
    MctpFixture f;
    sim::Tick arrival = 0;
    f.b->setHandler([&](Eid, MctpMsgType, std::vector<std::uint8_t>) {
        arrival = f.sim.now();
    });
    f.a->sendMessage(0x20, MctpMsgType::Control, {1});
    f.sim.runFor(sim::milliseconds(1));
    EXPECT_GE(arrival, sim::microseconds(15)); // channel latency floor
}

// ---------------------------------------------------------------------------
// Console ↔ BMS-Controller end to end

TEST(MgmtConsole, HealthPollReportsSlots)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 2;
    harness::BmStoreTestbed bed(cfg);
    bool polled = false;
    bed.console().healthPoll(
        bed.controller().endpoint().eid(),
        [&](std::vector<SlotHealth> slots) {
            ASSERT_EQ(slots.size(), 2u);
            EXPECT_TRUE(slots[0].present);
            EXPECT_TRUE(slots[1].present);
            EXPECT_EQ(slots[0].capacityBytes,
                      2000ull * 1000 * 1000 * 1000);
            polled = true;
        });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return polled; }));
}

TEST(MgmtConsole, CreateAndDestroyNamespaceRemotely)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    Eid ctrl = bed.controller().endpoint().eid();

    std::optional<std::uint32_t> nsid;
    bool created = false;
    bed.console().createNamespace(ctrl, /*fn=*/9, sim::gib(128), 0,
                                  core::QosLimits(),
                                  [&](std::optional<std::uint32_t> id) {
                                      nsid = id;
                                      created = true;
                                  });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return created; }));
    ASSERT_TRUE(nsid.has_value());
    EXPECT_NE(bed.engine().findBinding(9, *nsid), nullptr);

    bool destroyed = false;
    bed.console().destroyNamespace(ctrl, 9, *nsid, [&](bool ok) {
        EXPECT_TRUE(ok);
        destroyed = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return destroyed; }));
    EXPECT_EQ(bed.engine().findBinding(9, *nsid), nullptr);
}

TEST(MgmtConsole, CreateNamespaceFailsWhenFull)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    bool done = false;
    bed.console().createNamespace(
        bed.controller().endpoint().eid(), 9, sim::gib(4096), 0,
        core::QosLimits(), [&](std::optional<std::uint32_t> id) {
            EXPECT_FALSE(id.has_value());
            done = true;
        });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

TEST(MgmtConsole, SetQosRemotely)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    bed.attachTenant(0, sim::gib(128));
    bool done = false;
    core::QosLimits lim;
    lim.iopsLimit = 5000;
    bed.console().setQos(bed.controller().endpoint().eid(), 0, 1, lim,
                         [&](bool ok) {
                             EXPECT_TRUE(ok);
                             done = true;
                         });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
    const core::QosLimits *got =
        bed.engine().qos().limitsFor(core::QosModule::key(0, 1));
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(got->iopsLimit, 5000);
}

TEST(MgmtConsole, SetQosRejectsUnknownBinding)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    bool done = false;
    bed.console().setQos(bed.controller().endpoint().eid(), 60, 1,
                         core::QosLimits(), [&](bool ok) {
                             EXPECT_FALSE(ok);
                             done = true;
                         });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

TEST(MgmtConsole, IoStatsReflectTraffic)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));

    workload::FioJobSpec spec = workload::fioRandR1();
    spec.runTime = sim::milliseconds(250);
    harness::runFio(bed.sim(), disk, spec);

    bool done = false;
    bed.console().ioStats(bed.controller().endpoint().eid(), 0,
                          [&](std::optional<MiIoStats> st) {
                              ASSERT_TRUE(st.has_value());
                              EXPECT_GT(st->readOps, 0u);
                              EXPECT_GT(st->readIops, 10'000.0);
                              done = true;
                          });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

TEST(MgmtConsole, SmartTelemetryReflectsLoad)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));

    // Heavy load warms the disk up.
    workload::FioJobSpec spec = workload::fioSeqR256();
    spec.runTime = sim::milliseconds(300);
    harness::runFio(bed.sim(), disk, spec);

    bool polled = false;
    bed.console().healthPoll(
        bed.controller().endpoint().eid(),
        [&](std::vector<SlotHealth> slots) {
            ASSERT_EQ(slots.size(), 1u);
            const SlotHealth &h = slots[0];
            // Idle floor is 308 K (35 C); sustained sequential load
            // pushes the composite temperature well above it.
            EXPECT_GT(h.temperatureK, 315);
            EXPECT_LT(h.temperatureK, 273 + 75);
            EXPECT_EQ(h.firmwareRev, "VDV10131");
            EXPECT_EQ(h.mediaErrors, 0u);
            EXPECT_LE(h.percentageUsed, 1);
            polled = true;
        });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return polled; }));
}

// A function id past the card is refused when the request is decoded,
// before the namespace manager indexes anything by it; the card keeps
// serving valid requests afterwards.
TEST(MgmtConsole, FunctionPastTheCardIsRefused)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    bed.attachTenant(0, sim::gib(64));
    Eid ctrl = bed.controller().endpoint().eid();
    auto past = static_cast<std::uint8_t>(
        bed.engine().config().totalFunctions());

    auto create = [&](std::uint8_t fn, bool thin) {
        std::optional<std::uint32_t> nsid;
        bool done = false;
        bed.console().createNamespace(
            ctrl, fn, sim::gib(64), 0, core::QosLimits(),
            [&](std::optional<std::uint32_t> id) {
                nsid = id;
                done = true;
            },
            thin);
        EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
        return nsid;
    };
    EXPECT_FALSE(create(200, false).has_value());
    EXPECT_FALSE(create(past, true).has_value());

    std::optional<std::uint32_t> snap;
    bool done = false;
    bed.console().snapshot(ctrl, 0, 1,
                           [&](std::optional<std::uint32_t> id,
                               std::vector<MiSnapInfo>) {
                               snap = id;
                               done = true;
                           });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
    ASSERT_TRUE(snap.has_value());
    std::optional<std::uint32_t> cloned = 0;
    done = false;
    bed.console().clone(ctrl, *snap, static_cast<std::uint8_t>(past + 2),
                        core::QosLimits(),
                        [&](std::optional<std::uint32_t> nsid) {
                            cloned = nsid;
                            done = true;
                        });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
    EXPECT_FALSE(cloned.has_value());

    auto valid = create(1, false);
    ASSERT_TRUE(valid.has_value());
    EXPECT_NE(bed.engine().findBinding(1, *valid), nullptr);
}

// The controller checks a firmware image's size at decode: an empty
// image, one that is not whole dwords (NUMD counts dwords) and one past
// the cap are refused before anything is allocated or sent to the SSD.
TEST(MgmtConsole, FirmwareImageSizeCheckedAtDecode)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    Eid ctrl = bed.controller().endpoint().eid();
    auto *raw = bed.sim().make<MctpEndpoint>(bed.sim(), "raw", 0x31);
    bed.mctp().bind(*raw);
    std::vector<std::uint8_t> answer;
    raw->setHandler([&](Eid, MctpMsgType, std::vector<std::uint8_t> msg) {
        answer = std::move(msg);
    });
    auto upgrade = [&](std::uint32_t image_bytes) {
        std::vector<std::uint8_t> frame = {
            0x00, static_cast<std::uint8_t>(MiOpcode::VendorFirmwareUpgrade),
            0x00, 0x01, 0x00};
        std::vector<std::uint8_t> body =
            wire::encode(MiUpgradeReq{0, image_bytes});
        frame.insert(frame.end(), body.begin(), body.end());
        answer.clear();
        raw->sendMessage(ctrl, MctpMsgType::NvmeMi, frame);
        EXPECT_TRUE(test::runUntil(
            bed.sim(), [&] { return !answer.empty(); }, sim::seconds(30)));
        return answer.size() < 5 ? MiStatus::InternalError
                                 : static_cast<MiStatus>(answer[2]);
    };

    for (std::uint32_t bad :
         {0u, 6u, HotUpgradeManager::kMaxImageBytes + 4}) {
        SCOPED_TRACE(bad);
        EXPECT_EQ(upgrade(bad), MiStatus::InvalidParameter);
    }
    EXPECT_EQ(bed.ssd(0).firmwareActivations(), 0u);
    EXPECT_EQ(upgrade(4096), MiStatus::Success);
    EXPECT_EQ(bed.ssd(0).firmwareActivations(), 1u);
}

// df must separate promised (logical) from allocated (physical)
// capacity per slot: a thick namespace reserves its chunks up front,
// a thin one only promises them — the gap is the overcommit the
// operator watches.
TEST(MgmtConsole, DfSeparatesLogicalFromPhysical)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    Eid ctrl = bed.controller().endpoint().eid();
    std::uint64_t chunk = bed.controller().namespaces().chunkBlocks() * 4096;

    // One thick namespace (2 chunks, physically reserved)...
    bed.attachTenant(0, 2 * chunk);
    // ...and one thin namespace promising 8 chunks, backed by nothing.
    bool created = false;
    bed.console().createNamespace(ctrl, 1, 8 * chunk, 0,
                                  core::QosLimits(),
                                  [&](std::optional<std::uint32_t> id) {
                                      EXPECT_TRUE(id.has_value());
                                      created = true;
                                  },
                                  /*thin=*/true);
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return created; }));

    bool polled = false;
    bed.console().df(ctrl, [&](std::vector<MiDfEntry> df) {
        ASSERT_EQ(df.size(), 1u);
        EXPECT_EQ(df[0].usedChunks, 2u); // thick reservation only
        EXPECT_EQ(df[0].freeChunks, df[0].totalChunks - 2);
        // Promised capacity counts both namespaces.
        EXPECT_EQ(df[0].logicalChunks, 10u);
        polled = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return polled; }));

    // ioStats on the thin function reports the promised size.
    bool stats = false;
    bed.console().ioStats(ctrl, 1, [&](std::optional<MiIoStats> st) {
        ASSERT_TRUE(st.has_value());
        stats = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return stats; }));
}

// ---------------------------------------------------------------------------
// Pinned NVMe-MI wire bytes: every request and response payload of the
// 17 implemented opcodes, byte for byte. MCTP timing follows message
// length, so a layout change moves every management replay; these
// cases fail on any such change, whichever side makes it.

namespace {

std::string
toHex(const std::vector<std::uint8_t> &bytes, std::size_t from = 0)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (std::size_t i = from; i < bytes.size(); ++i) {
        out += digits[bytes[i] >> 4];
        out += digits[bytes[i] & 0xF];
    }
    return out;
}

std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    }
    return out;
}

/** One canned request and the controller's pinned answer. */
struct WireCase
{
    MiOpcode op;
    const char *request;
    MiStatus status;
    const char *response;
    /** Card-internal set-up run before the request (may be empty). */
    std::function<void(harness::BmStoreTestbed &)> before;
};

} // namespace

// A raw endpoint on the card's MCTP channel sends hand-framed requests
// ([kind][opcode][status][tag u16][payload]) to the real controller;
// each answer must match its pinned header and payload bytes.
TEST(MiWireBytes, ControllerResponsesArePinned)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 2;
    cfg.chunkBytes = sim::mib(1);
    cfg.remoteNodes = 2;
    cfg.volumesPerNode = 1;
    harness::BmStoreTestbed bed(cfg);
    bed.enableSpareDisks();
    bed.attachTenant(0, sim::mib(2));
    core::NamespaceManager &ns = bed.controller().namespaces();
    ASSERT_TRUE(ns.createAndAttach(3, sim::mib(2)).has_value());

    Eid ctrl = bed.controller().endpoint().eid();
    auto *raw = bed.sim().make<MctpEndpoint>(bed.sim(), "raw", 0x31);
    bed.mctp().bind(*raw);
    std::vector<std::uint8_t> answer;
    raw->setHandler([&](Eid, MctpMsgType, std::vector<std::uint8_t> msg) {
        answer = std::move(msg);
    });

    const std::vector<WireCase> cases = {
        {MiOpcode::HealthStatusPoll, "", MiStatus::Success,
         "040001000800564456313031333100204aa9d101000000000000340100000000"
         "000000000000000000000000000101000800564456313031333100204aa9d101"
         "0000000000003401000000000000000000000000000000000002010000000000"
         "0004000000000000000000000000000000000000000000000000000000030100"
         "0000000000040000000000000000000000000000000000000000000000000000"
         "00", nullptr},
        // fn 1, 1 MiB, policy 0, 1000 IOPS, 50 MB/s, thin.
        {MiOpcode::VendorCreateNamespace,
         "01" "0000100000000000" "00" "0000000000408f40"
         "0000000000004940" "01",
         MiStatus::Success,
         "01000000", nullptr},
        // fn 1, nsid 1, 2000 IOPS, no MB/s cap.
        {MiOpcode::VendorSetQos,
         "01" "01000000" "0000000000409f40" "0000000000000000",
         MiStatus::Success, "", nullptr},
        {MiOpcode::VendorIoStats, "00", MiStatus::Success,
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000004000001000000000000"
         "0200000000000000fe0000000000000003000000000000000000001000000000"
         "000100010000000000000200000000000000fe00000000000000020000000000"
         "0000000000100000000000024000000000000000000000000000000040000000"
         "0000000000000000000000000000001000000000000340000000000000000000"
         "00000000000040000000000000000000000000000000000000100000000000",
         nullptr},
        {MiOpcode::VendorDf, "", MiStatus::Success,
         "040000010000000000000200000000000000fe00000000000000030000000000"
         "00000000001000000000000100010000000000000200000000000000fe000000"
         "0000000002000000000000000000001000000000000240000000000000000000"
         "0000000000004000000000000000000000000000000000000010000000000003"
         "4000000000000000000000000000000040000000000000000000000000000000"
         "000000100000000000", nullptr},
        // fn 0, nsid 1, chunk 0, auto destination.
        {MiOpcode::VendorMigrateChunk, "00" "01000000" "00000000" "ff",
         MiStatus::Success,
         "0101dc2c5e2c0c51fb3f0000100000000000", nullptr},
        {MiOpcode::VendorEvacuate, "01", MiStatus::Success,
         "0103000000000000001ec3633f8b851440", nullptr},
        {MiOpcode::VendorMigrationStatus, "", MiStatus::Success,
         "0404000000030100000001000000010100030301000000010000000000100000"
         "0000000300000000010000000100000001000002030100000001000000000010"
         "0000000000020000000001000000000000000102000003010000000100000000"
         "0010000000000001000000000100000000000000000001020301000000010000"
         "000000100000000000",
         nullptr},
        // spill 10 MB/s, promote 100 MB/s, manual policy.
        {MiOpcode::VendorSetTierPolicy,
         "0000000000002440" "0000000000005940" "0000000000000000",
         MiStatus::Success, "", nullptr},
        // node 0, after spilling fn 0's chunk 1 onto it.
        {MiOpcode::VendorFailNode, "00", MiStatus::Success,
         "010100000001000000",
         [](harness::BmStoreTestbed &b) {
             bool done = false;
             b.controller().tiering().spill(0, 1, 1, b.remoteSlot(0, 0),
                                            [&](bool ok) {
                                                EXPECT_TRUE(ok);
                                                done = true;
                                            });
             ASSERT_TRUE(test::runUntil(b.sim(), [&] { return done; },
                                        sim::seconds(10)));
         }},
        {MiOpcode::VendorTierStats, "", MiStatus::Success,
         "0200000000000000000000000100000001000000010000000100000100000001"
         "000000030000020000000000000000", nullptr},
        // fn 3, nsid 1.
        {MiOpcode::VendorSnapshot, "03" "01000000", MiStatus::Success,
         "010000000100010000000301000000000200000000000002000000",
         nullptr},
        // snapshot 1 onto fn 2, unlimited QoS.
        {MiOpcode::VendorClone,
         "01000000" "02" "0000000000000000" "0000000000000000",
         MiStatus::Success,
         "01000000", nullptr},
        {MiOpcode::VendorDeleteSnapshot, "01000000", MiStatus::Success, "",
         nullptr},
        // slot 0, 4 KiB image.
        {MiOpcode::VendorFirmwareUpgrade, "00" "00100000",
         MiStatus::Success,
         "010000000000004940ddb243fc358ec0400000000000004940ddb243fc35c0c0"
         "40ddb243fc35c0c040", nullptr},
        // slot 1, destructive swap.
        {MiOpcode::VendorHotPlug, "01" "00", MiStatus::Success,
         "01ae81ad120c008940000000000000000000000000",
         nullptr},
        // fn 1, nsid 1.
        {MiOpcode::VendorDestroyNamespace, "01" "01000000",
         MiStatus::Success, "", nullptr},
    };

    std::uint16_t tag = 0x100;
    for (const WireCase &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "opcode 0x" << std::hex << int(c.op));
        if (c.before)
            c.before(bed);
        std::vector<std::uint8_t> frame = {
            0x00, static_cast<std::uint8_t>(c.op), 0x00,
            static_cast<std::uint8_t>(tag),
            static_cast<std::uint8_t>(tag >> 8)};
        std::vector<std::uint8_t> body = fromHex(c.request);
        frame.insert(frame.end(), body.begin(), body.end());
        answer.clear();
        raw->sendMessage(ctrl, MctpMsgType::NvmeMi, frame);
        ASSERT_TRUE(test::runUntil(
            bed.sim(), [&] { return !answer.empty(); }, sim::seconds(30)));
        ASSERT_GE(answer.size(), 5u);
        EXPECT_EQ(answer[0], 0x01); // response
        EXPECT_EQ(answer[1], static_cast<std::uint8_t>(c.op));
        EXPECT_EQ(answer[2], static_cast<std::uint8_t>(c.status));
        EXPECT_EQ(answer[3] | (answer[4] << 8), tag);
        EXPECT_EQ(toHex(answer, 5), c.response);
        ++tag;
    }
}

// A recording endpoint takes the controller's EID; every console verb's
// request must carry its pinned payload.
TEST(MiWireBytes, ConsoleRequestsArePinned)
{
    sim::Simulator sim{11};
    auto *channel = sim.make<MctpChannel>(sim, "ch");
    auto *console = sim.make<MgmtConsole>(sim, "console");
    auto *rec = sim.make<MctpEndpoint>(sim, "rec", 0x20);
    channel->bind(console->endpoint());
    channel->bind(*rec);
    std::vector<std::uint8_t> sent;
    rec->setHandler([&](Eid, MctpMsgType, std::vector<std::uint8_t> msg) {
        sent = std::move(msg);
    });

    const Eid ctrl = 0x20;
    const core::QosLimits qos{1000.0, 50.0};
    struct Verb
    {
        MiOpcode op;
        std::function<void()> send;
        const char *payload;
    };
    const std::vector<Verb> verbs = {
        {MiOpcode::HealthStatusPoll,
         [&] { console->healthPoll(ctrl, [](std::vector<SlotHealth>) {}); },
         ""},
        {MiOpcode::VendorCreateNamespace,
         [&] {
             console->createNamespace(
                 ctrl, 5, sim::gib(128), 2, qos,
                 [](std::optional<std::uint32_t>) {}, /*thin=*/true);
         },
         "05" "0000000020000000" "02" "0000000000408f40"
         "0000000000004940" "01"},
        {MiOpcode::VendorCreateNamespace,
         [&] {
             console->createNamespace(ctrl, 5, sim::gib(128), 0,
                                      core::QosLimits(),
                                      [](std::optional<std::uint32_t>) {});
         },
         "05" "0000000020000000" "00" "0000000000000000"
         "0000000000000000" "00"},
        {MiOpcode::VendorSnapshot,
         [&] {
             console->snapshot(ctrl, 5, 0x01020304,
                               [](std::optional<std::uint32_t>,
                                  std::vector<MiSnapInfo>) {});
         },
         "05" "04030201"},
        {MiOpcode::VendorClone,
         [&] {
             console->clone(ctrl, 7, 9, qos,
                            [](std::optional<std::uint32_t>) {});
         },
         "07000000" "09" "0000000000408f40" "0000000000004940"},
        {MiOpcode::VendorDeleteSnapshot,
         [&] { console->deleteSnapshot(ctrl, 0xA0B0C0D0, [](bool) {}); },
         "d0c0b0a0"},
        {MiOpcode::VendorDestroyNamespace,
         [&] { console->destroyNamespace(ctrl, 5, 2, [](bool) {}); },
         "05" "02000000"},
        {MiOpcode::VendorSetQos,
         [&] { console->setQos(ctrl, 5, 2, qos, [](bool) {}); },
         "05" "02000000" "0000000000408f40" "0000000000004940"},
        {MiOpcode::VendorIoStats,
         [&] {
             console->ioStats(ctrl, 127,
                              [](std::optional<MiIoStats>) {});
         },
         "7f"},
        {MiOpcode::VendorFirmwareUpgrade,
         [&] {
             console->firmwareUpgrade(ctrl, 3, 0x00123456,
                                      [](MiUpgradeResult) {});
         },
         "03" "56341200"},
        {MiOpcode::VendorHotPlug,
         [&] {
             console->hotPlug(ctrl, 2, [](MiHotPlugResult) {},
                              /*lossless=*/true);
         },
         "02" "01"},
        {MiOpcode::VendorMigrateChunk,
         [&] {
             console->migrateChunk(ctrl, 4, 1, 0x0102, 0xFF,
                                   [](MiMigrateResult) {});
         },
         "04" "01000000" "02010000" "ff"},
        {MiOpcode::VendorEvacuate,
         [&] { console->evacuate(ctrl, 1, [](MiEvacuateResult) {}); },
         "01"},
        {MiOpcode::VendorMigrationStatus,
         [&] {
             console->migrations(ctrl,
                                 [](std::vector<MiMigrationInfo>) {});
         },
         ""},
        {MiOpcode::VendorDf,
         [&] { console->df(ctrl, [](std::vector<MiDfEntry>) {}); }, ""},
        {MiOpcode::VendorTierStats,
         [&] {
             console->tierStats(ctrl, [](std::optional<MiTierStats>) {});
         },
         ""},
        {MiOpcode::VendorSetTierPolicy,
         [&] {
             console->setTierPolicy(ctrl, 10.0, 100.0,
                                    sim::milliseconds(250), [](bool) {});
         },
         "0000000000002440" "0000000000005940" "80b2e60e00000000"},
        {MiOpcode::VendorFailNode,
         [&] { console->failNode(ctrl, 1, [](MiFailNodeResult) {}); },
         "01"},
    };

    std::uint16_t tag = 1;
    for (const Verb &v : verbs) {
        SCOPED_TRACE(testing::Message()
                     << "opcode 0x" << std::hex << int(v.op));
        sent.clear();
        v.send();
        sim.runFor(sim::milliseconds(1));
        ASSERT_GE(sent.size(), 5u);
        EXPECT_EQ(sent[0], 0x00); // request
        EXPECT_EQ(sent[1], static_cast<std::uint8_t>(v.op));
        EXPECT_EQ(sent[2], 0x00);
        EXPECT_EQ(sent[3] | (sent[4] << 8), tag);
        EXPECT_EQ(toHex(sent, 5), v.payload);
        ++tag;
    }
}
