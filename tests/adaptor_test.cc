/**
 * @file
 * HostAdaptor unit tests: the DMA request router (chip-window vs
 * global-PRP-routed traffic), back-end queue management, drain
 * tracking, and the store-and-forward ablation path — exercised
 * directly against a scripted fake SSD.
 */

#include <gtest/gtest.h>

#include "core/engine/chip_memory.hh"
#include "core/engine/global_prp.hh"
#include "core/engine/host_adaptor.hh"
#include "tests/test_util.hh"

using namespace bms;
using core::ChipMemory;
using core::GlobalPrp;
using core::HostAdaptor;

namespace {

/**
 * Scripted back-end device: records register writes; on each IO SQE
 * doorbell it fetches the SQE through the adaptor, optionally issues
 * a data DMA against the SQE's PRP1, then posts a CQE.
 */
class ScriptedSsd : public pcie::PcieDeviceIf
{
  public:
    explicit ScriptedSsd(sim::Simulator &sim) : _sim(sim) {}

    int functionCount() const override { return 1; }

    void
    attached(pcie::PcieUpstreamIf &up) override
    {
        upstream = &up;
    }

    std::uint64_t
    mmioRead(pcie::FunctionId, std::uint64_t offset) override
    {
        if (offset == nvme::kRegCsts)
            return enabled ? nvme::kCstsReady : 0;
        return 0;
    }

    void
    mmioWrite(pcie::FunctionId, std::uint64_t offset,
              std::uint64_t value) override
    {
        if (offset == nvme::kRegCc) {
            enabled = (value & nvme::kCcEnable) != 0;
            return;
        }
        if (offset == nvme::kRegAsq) {
            asq = value;
            return;
        }
        if (offset == nvme::kRegAcq) {
            acq = value;
            return;
        }
        auto ref = nvme::decodeDoorbell(offset);
        if (!ref.valid || !ref.isSq)
            return;
        if (ref.qid == 0)
            handleAdmin(static_cast<std::uint16_t>(value));
        else
            handleIo(static_cast<std::uint16_t>(value));
    }

    /** Fetch SQEs [head, tail) of the admin queue and answer them. */
    void
    handleAdmin(std::uint16_t tail)
    {
        while (adminHead != tail) {
            std::uint16_t slot = adminHead;
            adminHead = static_cast<std::uint16_t>((adminHead + 1) % 32);
            auto buf =
                std::make_shared<std::array<std::uint8_t, 64>>();
            upstream->dmaRead(asq + slot * 64ull, 64, buf->data(),
                              [this, buf] {
                                  nvme::Sqe sqe =
                                      nvme::fromBytes<nvme::Sqe>(
                                          buf->data());
                                  answerAdmin(sqe);
                              });
        }
    }

    void
    answerAdmin(const nvme::Sqe &sqe)
    {
        // Identify namespace: report 1 TiB.
        if (sqe.opcode ==
                static_cast<std::uint8_t>(nvme::AdminOpcode::Identify) &&
            (sqe.cdw10 & 0xff) ==
                static_cast<std::uint32_t>(
                    nvme::IdentifyCns::Namespace)) {
            auto nsze = std::make_shared<std::uint64_t>(
                sim::gib(1024) / nvme::kBlockSize);
            upstream->dmaWrite(
                sqe.prp1, 8,
                reinterpret_cast<std::uint8_t *>(nsze.get()),
                [this, sqe, nsze] { postAdminCqe(sqe, true); });
            return;
        }
        // CreateIoCq / CreateIoSq etc.: just succeed. Capture the IO
        // ring base and size for later fetches.
        if (sqe.opcode ==
            static_cast<std::uint8_t>(nvme::AdminOpcode::CreateIoSq)) {
            ioSq = sqe.prp1;
            ioEntries = static_cast<std::uint16_t>((sqe.cdw10 >> 16) + 1);
        }
        if (sqe.opcode ==
            static_cast<std::uint8_t>(nvme::AdminOpcode::CreateIoCq)) {
            ioCq = sqe.prp1;
        }
        postAdminCqe(sqe, true);
    }

    void
    postAdminCqe(const nvme::Sqe &sqe, bool ok)
    {
        nvme::Cqe cqe;
        cqe.cid = sqe.cid;
        cqe.sqId = 0;
        cqe.setStatusPhase(ok ? nvme::Status::Success
                              : nvme::Status::DataTransferError,
                           adminPhase);
        auto buf = std::make_shared<std::array<std::uint8_t, 16>>();
        nvme::toBytes(cqe, buf->data());
        std::uint16_t slot = adminCqTail;
        adminCqTail = static_cast<std::uint16_t>((adminCqTail + 1) % 32);
        if (adminCqTail == 0)
            adminPhase = !adminPhase;
        upstream->dmaWrite(acq + slot * 16ull, 16, buf->data(),
                           [this, buf] { upstream->msix(0, 0); });
    }

    void
    handleIo(std::uint16_t tail)
    {
        while (ioHead != tail) {
            std::uint16_t slot = ioHead;
            ioHead = static_cast<std::uint16_t>((ioHead + 1) % ioEntries);
            auto buf =
                std::make_shared<std::array<std::uint8_t, 64>>();
            upstream->dmaRead(ioSq + slot * 64ull, 64, buf->data(),
                              [this, buf] {
                                  nvme::Sqe sqe =
                                      nvme::fromBytes<nvme::Sqe>(
                                          buf->data());
                                  seenIo.push_back(sqe);
                                  // Data DMA against PRP1, then CQE.
                                  upstream->dmaWrite(
                                      sqe.prp1, sqe.dataBytes() ? 4096 : 0,
                                      nullptr,
                                      [this, sqe] { postIoCqe(sqe); });
                              });
        }
    }

    void
    postIoCqe(const nvme::Sqe &sqe)
    {
        nvme::Cqe cqe;
        cqe.cid = sqe.cid;
        cqe.sqId = 1;
        cqe.setStatusPhase(nvme::Status::Success, ioPhase);
        auto buf = std::make_shared<std::array<std::uint8_t, 16>>();
        nvme::toBytes(cqe, buf->data());
        std::uint16_t slot = ioCqTail;
        ioCqTail = static_cast<std::uint16_t>((ioCqTail + 1) % ioEntries);
        if (ioCqTail == 0)
            ioPhase = !ioPhase;
        upstream->dmaWrite(ioCq + slot * 16ull, 16, buf->data(),
                           [this, buf] { upstream->msix(0, 1); });
    }

    sim::Simulator &_sim;
    pcie::PcieUpstreamIf *upstream = nullptr;
    bool enabled = false;
    std::uint64_t asq = 0, acq = 0, ioSq = 0, ioCq = 0;
    std::uint16_t adminHead = 0, adminCqTail = 0;
    std::uint16_t ioHead = 0, ioCqTail = 0, ioEntries = 0;
    bool adminPhase = true, ioPhase = true;
    std::vector<nvme::Sqe> seenIo;
};

struct Fixture
{
    sim::Simulator sim{55};
    ChipMemory chip{sim.pages()};
    core::EngineConfig cfg;
    test::FakeUpstream hostUp{sim};
    HostAdaptor *adaptor;
    ScriptedSsd ssd{sim};

    explicit Fixture(bool zero_copy = true)
    {
        cfg.zeroCopy = zero_copy;
        adaptor = sim.make<HostAdaptor>(sim, "ad", 0, chip, cfg);
        adaptor->setHostUpstream(&hostUp);
        adaptor->attachSsd(ssd);
        bool ready = false;
        adaptor->init([&ready] { ready = true; });
        EXPECT_TRUE(test::runUntil(sim, [&] { return ready; }));
    }
};

} // namespace

TEST(HostAdaptor, InitDiscoversCapacityThroughChipRings)
{
    Fixture f;
    EXPECT_TRUE(f.adaptor->ready());
    EXPECT_EQ(f.adaptor->capacityBytes(), sim::gib(1024));
    // All bring-up traffic (SQE fetches, CQE posts, identify data)
    // targeted the chip-memory window.
    EXPECT_GT(f.adaptor->chipAccessBytes(), 0u);
    EXPECT_EQ(f.adaptor->routedToHostBytes(), 0u);
}

TEST(HostAdaptor, GlobalPrpTrafficRoutesToHost)
{
    Fixture f;
    nvme::Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
    sqe.nsid = 1;
    sqe.setSlba(0);
    sqe.setNlb(1);
    sqe.prp1 = GlobalPrp::encode(0x123000, /*fn=*/9, false);

    bool done = false;
    f.adaptor->submitIo(sqe, [&](const nvme::Cqe &cqe) {
        EXPECT_TRUE(cqe.ok());
        done = true;
    });
    ASSERT_TRUE(test::runUntil(f.sim, [&] { return done; }));
    ASSERT_EQ(f.ssd.seenIo.size(), 1u);
    // The SSD received the rewritten SQE verbatim...
    EXPECT_EQ(f.ssd.seenIo[0].prp1, sqe.prp1);
    // ...and its data DMA was routed to the host side.
    EXPECT_EQ(f.adaptor->routedToHostBytes(), 4096u);
    EXPECT_EQ(f.adaptor->completedIos(), 1u);
}

TEST(HostAdaptor, StoreAndForwardAlsoRoutesCorrectly)
{
    Fixture f(/*zero_copy=*/false);
    nvme::Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
    sqe.nsid = 1;
    sqe.setSlba(8);
    sqe.setNlb(1);
    sqe.prp1 = GlobalPrp::encode(0x500000, 3, false);
    bool done = false;
    f.adaptor->submitIo(sqe, [&](const nvme::Cqe &) { done = true; });
    EXPECT_TRUE(test::runUntil(f.sim, [&] { return done; }));
    EXPECT_EQ(f.adaptor->routedToHostBytes(), 4096u);
}

TEST(HostAdaptor, InflightAndDrainTracking)
{
    Fixture f;
    EXPECT_EQ(f.adaptor->inflight(), 0u);
    int completions = 0;
    for (int i = 0; i < 8; ++i) {
        nvme::Sqe sqe;
        sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
        sqe.nsid = 1;
        sqe.setSlba(static_cast<std::uint64_t>(i));
        sqe.setNlb(1);
        sqe.prp1 = GlobalPrp::encode(0x10000, 0, false);
        f.adaptor->submitIo(sqe,
                            [&](const nvme::Cqe &) { ++completions; });
    }
    bool drained = false;
    f.adaptor->whenDrained([&] { drained = true; });
    EXPECT_FALSE(drained);
    EXPECT_TRUE(test::runUntil(f.sim, [&] { return drained; }));
    EXPECT_EQ(completions, 8);
    EXPECT_EQ(f.adaptor->inflight(), 0u);
}

TEST(HostAdaptor, DetachRequiresDrainAndReinitWorks)
{
    Fixture f;
    f.adaptor->detachSsd();
    EXPECT_FALSE(f.adaptor->ready());
    EXPECT_FALSE(f.adaptor->hasSsd());

    ScriptedSsd fresh(f.sim);
    f.adaptor->attachSsd(fresh);
    bool ready = false;
    f.adaptor->init([&ready] { ready = true; });
    EXPECT_TRUE(test::runUntil(f.sim, [&] { return ready; }));
    EXPECT_TRUE(f.adaptor->ready());
}

TEST(HostAdaptor, BackLinkCarriesTraffic)
{
    Fixture f;
    nvme::Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
    sqe.nsid = 1;
    sqe.setSlba(0);
    sqe.setNlb(1);
    sqe.prp1 = GlobalPrp::encode(0x1000, 0, false);
    bool done = false;
    f.adaptor->submitIo(sqe, [&](const nvme::Cqe &) { done = true; });
    EXPECT_TRUE(test::runUntil(f.sim, [&] { return done; }));
    EXPECT_GT(f.adaptor->backLink().up().busyUntil(), 0u);
}
