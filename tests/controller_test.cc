/**
 * @file
 * Unit tests of the reusable NVMe controller state machine
 * (nvme::ControllerModel): register file, admin bring-up, queue
 * management, SQE fetch, CQE posting with phase tags, pause/resume.
 */

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "nvme/controller.hh"
#include "tests/test_util.hh"

using namespace bms;
using nvme::AdminOpcode;
using nvme::Cqe;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Controller that completes every I/O after a fixed delay. */
class EchoController : public nvme::ControllerModel
{
  public:
    EchoController(sim::Simulator &sim, Config cfg)
        : ControllerModel(sim, "echo", cfg)
    {}

    int ioSeen = 0;
    /** The last I/O SQE as it arrived. */
    Sqe lastIo;
    sim::Tick ioDelay = 0;
    bool holdIo = false;
    std::vector<Handle> held;

  protected:
    void
    executeIo(Handle h) override
    {
        ++ioSeen;
        lastIo = sqe(h);
        if (holdIo) {
            held.push_back(h);
            return;
        }
        if (ioDelay == 0) {
            complete(h, Status::Success);
        } else {
            schedule(ioDelay, [this, h] { complete(h, Status::Success); });
        }
    }
};

/** Driver-side shim: raw rings in fake host memory. */
class Harness
{
  public:
    sim::Simulator sim{7};
    test::FakeUpstream up{sim};
    EchoController *ctrl;
    test::RingInitiator host{
        sim, up, [this](std::uint64_t offset, std::uint64_t value) {
            ctrl->regWrite(offset, value);
        }};

    explicit Harness(int max_queues = 8)
    {
        nvme::ControllerModel::Config cfg;
        cfg.fn = 3;
        cfg.maxIoQueues = static_cast<std::uint16_t>(max_queues);
        ctrl = sim.make<EchoController>(sim, cfg);
        ctrl->setUpstream(&up);
        nvme::NamespaceInfo ns;
        ns.nsid = 1;
        ns.sizeBlocks = 1 << 20;
        ctrl->addNamespace(ns);
        host.enable();
    }

    Cqe adminRoundTrip(const Sqe &sqe) { return host.submit(0, sqe); }

    void createIoQueues() { host.createIoQueue(1, 64, 0x30000, 0x40000); }

    /** Post a one-block read on IO queue 1. */
    void
    ioSubmit()
    {
        Sqe sqe;
        sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
        sqe.nsid = 1;
        sqe.prp1 = 0x80000;
        sqe.setSlba(0);
        sqe.setNlb(1);
        host.post(1, sqe);
    }

    bool ioPoll(Cqe &out) { return host.poll(1, out); }
};

} // namespace

TEST(Controller, EnableSetsReady)
{
    Harness h;
    EXPECT_TRUE(h.ctrl->enabled());
    EXPECT_EQ(h.ctrl->regRead(nvme::kRegCsts), nvme::kCstsReady);
}

TEST(Controller, DisableClearsState)
{
    Harness h;
    h.ctrl->regWrite(nvme::kRegCc, 0);
    EXPECT_FALSE(h.ctrl->enabled());
    EXPECT_EQ(h.ctrl->regRead(nvme::kRegCsts), 0u);
}

TEST(Controller, IdentifyControllerReportsModel)
{
    Harness h;
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Controller);
    id.prp1 = 0x50000;
    Cqe cqe = h.adminRoundTrip(id);
    EXPECT_TRUE(cqe.ok());
    std::uint8_t model[40];
    h.up.memory.read(0x50000 + 24, 40, model);
    EXPECT_EQ(std::string(reinterpret_cast<char *>(model), 12),
              "BMS-SIM-CTRL");
}

TEST(Controller, IdentifyNamespaceReportsSize)
{
    Harness h;
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.nsid = 1;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = 0x50000;
    EXPECT_TRUE(h.adminRoundTrip(id).ok());
    std::uint64_t nsze = 0;
    h.up.memory.read(0x50000,  8, reinterpret_cast<std::uint8_t *>(&nsze));
    EXPECT_EQ(nsze, 1u << 20);
}

TEST(Controller, IdentifyUnknownNamespaceFails)
{
    Harness h;
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.nsid = 42;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = 0x50000;
    EXPECT_EQ(h.adminRoundTrip(id).status(), Status::InvalidNamespace);
}

TEST(Controller, UnknownAdminOpcodeRejected)
{
    Harness h;
    Sqe bad;
    bad.opcode = 0x7F;
    EXPECT_EQ(h.adminRoundTrip(bad).status(), Status::InvalidOpcode);
}

TEST(Controller, CreateQueueValidatesQid)
{
    Harness h(4);
    Sqe ccq;
    ccq.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoCq);
    ccq.prp1 = 0x90000;
    ccq.cdw10 = (63u << 16) | 99; // qid out of range
    EXPECT_EQ(h.adminRoundTrip(ccq).status(), Status::InvalidField);
}

TEST(Controller, IoCommandsFlowAndComplete)
{
    Harness h;
    h.createIoQueues();
    for (int i = 0; i < 10; ++i)
        h.ioSubmit();
    int completed = 0;
    EXPECT_TRUE(test::runUntil(h.sim, [&] {
        Cqe cqe;
        while (h.ioPoll(cqe)) {
            EXPECT_TRUE(cqe.ok());
            EXPECT_EQ(cqe.sqId, 1);
            ++completed;
        }
        return completed == 10;
    }));
    EXPECT_EQ(h.ctrl->ioSeen, 10);
    EXPECT_EQ(h.ctrl->readOps(), 10u);
    // One MSI per completion on vector 1, fn 3.
    int io_irqs = 0;
    for (auto &[fn, vec] : h.up.interrupts) {
        if (vec == 1) {
            EXPECT_EQ(fn, 3);
            ++io_irqs;
        }
    }
    EXPECT_EQ(io_irqs, 10);
}

TEST(Controller, PhaseFlipsOnWrap)
{
    Harness h;
    h.createIoQueues();
    // Submit more than the queue depth in waves to force CQ wrap.
    int completed = 0;
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 40; ++i)
            h.ioSubmit();
        EXPECT_TRUE(test::runUntil(h.sim, [&] {
            Cqe cqe;
            while (h.ioPoll(cqe)) {
                EXPECT_TRUE(cqe.ok());
                ++completed;
            }
            return completed == (wave + 1) * 40;
        }));
    }
    EXPECT_EQ(completed, 120);
}

TEST(Controller, PauseFetchHoldsCommands)
{
    Harness h;
    h.createIoQueues();
    h.ctrl->pauseFetch();
    h.ioSubmit();
    h.ioSubmit();
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(h.ctrl->ioSeen, 0);

    h.ctrl->resumeFetch();
    EXPECT_TRUE(
        test::runUntil(h.sim, [&] { return h.ctrl->ioSeen == 2; }));
}

// An initiator keeps at most size - 1 commands in a ring: with all
// `size` in it the tail would equal the head and read as empty, losing
// every one. The controller refuses the tail write that would do so.
TEST(Controller, SqOverrunPanics)
{
    Harness h;
    h.createIoQueues();
    h.ctrl->pauseFetch();
    for (int i = 0; i < 63; ++i)
        h.ioSubmit();
    EXPECT_EQ(h.ctrl->sqSnapshot(1).backlog, 63u);
    EXPECT_PANIC(h.ioSubmit());
}

TEST(Controller, InflightTracksOutstanding)
{
    Harness h;
    h.createIoQueues();
    h.ctrl->holdIo = true;
    for (int i = 0; i < 5; ++i)
        h.ioSubmit();
    EXPECT_TRUE(test::runUntil(h.sim, [&] { return h.ctrl->ioSeen == 5; }));
    EXPECT_EQ(h.ctrl->inflight(), 5u);
    for (nvme::ControllerModel::Handle held : h.ctrl->held)
        h.ctrl->complete(held, Status::Success);
    EXPECT_EQ(h.ctrl->inflight(), 0u);
}

TEST(Controller, NamespaceAddRemove)
{
    Harness h;
    nvme::NamespaceInfo ns;
    ns.nsid = 7;
    ns.sizeBlocks = 100;
    h.ctrl->addNamespace(ns);
    EXPECT_NE(h.ctrl->findNamespace(7), nullptr);
    h.ctrl->removeNamespace(7);
    EXPECT_EQ(h.ctrl->findNamespace(7), nullptr);
}

TEST(Controller, SetFeaturesGrantsQueues)
{
    Harness h(16);
    Sqe sf;
    sf.opcode = static_cast<std::uint8_t>(AdminOpcode::SetFeatures);
    sf.cdw10 = 0x07;
    Cqe cqe = h.adminRoundTrip(sf);
    EXPECT_TRUE(cqe.ok());
    EXPECT_EQ(cqe.dw0 & 0xffff, 15u);
    EXPECT_EQ(cqe.dw0 >> 16, 15u);
}

// A command's record holds its CQE until the posted write lands: a
// command that completes while an earlier CQE is still on its way must
// leave that CQE's bytes alone, so each arrives with its own CID and
// status.
TEST(Controller, CqeBytesLiveUntilThePostedWriteLands)
{
    Harness h;
    h.createIoQueues();
    Cqe cqe;
    // Two records to reuse: free again once their CQEs have landed.
    h.ioSubmit();
    h.ioSubmit();
    int landed = 0;
    ASSERT_TRUE(test::runUntil(h.sim, [&] {
        landed += h.ioPoll(cqe);
        return landed == 2;
    }));

    // The first CQE stays on its way while the second command is
    // fetched and completed (runUntil steps 1 ms).
    h.ctrl->holdIo = true;
    h.up.writeDelay = sim::milliseconds(10);
    h.ioSubmit();
    ASSERT_TRUE(
        test::runUntil(h.sim, [&] { return h.ctrl->held.size() == 1; }));
    const std::uint16_t first = h.ctrl->lastIo.cid;
    h.ctrl->complete(h.ctrl->held[0], Status::Success);
    h.ioSubmit();
    ASSERT_TRUE(
        test::runUntil(h.sim, [&] { return h.ctrl->held.size() == 2; }));
    const std::uint16_t second = h.ctrl->lastIo.cid;
    h.ctrl->complete(h.ctrl->held[1], Status::LbaOutOfRange);

    std::vector<std::pair<std::uint16_t, Status>> got;
    EXPECT_TRUE(test::runUntil(h.sim, [&] {
        if (h.ioPoll(cqe))
            got.emplace_back(cqe.cid, cqe.status());
        return got.size() == 2;
    }));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], std::make_pair(first, Status::Success));
    EXPECT_EQ(got[1], std::make_pair(second, Status::LbaOutOfRange));
}

// The controller moves an SQ's head when it issues a fetch and reads
// the SQE when that DMA lands, so a CQE can report a head past an SQE
// still being read. An initiator that freed SQ pages up to the
// reported head would free that SQE; nvme::QueuePair frees a page only
// once every command written into it has completed, so it arrives
// intact.
TEST(Controller, SqeFetchOutlivesReportedSqHead)
{
    Harness h;
    h.host.createIoQueue(1, 128, 0x30000, 0x40000); // SQ on two pages
    nvme::QueuePair<int> qp(h.up, 1, 128, 0x30000, 0x40000);
    std::vector<Cqe> cqes;
    int seenAtCqe = 0;
    h.up.onInterrupt = [&](pcie::FunctionId, std::uint16_t vector) {
        if (vector != 1)
            return;
        while (std::optional<Cqe> cqe = qp.pop()) {
            cqes.push_back(*cqe);
            seenAtCqe = h.ctrl->ioSeen;
            qp.complete(
                cqe->cid, [](int) {},
                [](std::uint16_t) { ADD_FAILURE() << "nothing parked"; });
        }
        h.ctrl->regWrite(qp.cqDoorbell().offset, qp.cqDoorbell().value);
    };
    auto submit = [&](std::uint64_t slba) {
        std::uint16_t cid = *qp.admit(0);
        Sqe sqe;
        sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
        sqe.nsid = 1;
        sqe.prp1 = 0x80000;
        sqe.setSlba(slba);
        sqe.setNlb(1);
        nvme::RegWrite ring = qp.push(sqe, cid);
        h.ctrl->regWrite(ring.offset, ring.value);
        return cid;
    };
    // Walk the tail to slot 62, two before the second page.
    for (std::size_t n = 1; n <= 62; ++n) {
        submit(n);
        ASSERT_TRUE(test::runUntil(h.sim, [&] { return cqes.size() == n; }));
    }

    // A at slot 62: fetched after 50 us, completed 10 us later. B at
    // slot 63 is rung while A executes, so A's CQE reports head 64
    // while B's fetch is still on its way.
    h.up.readDelay = sim::microseconds(50);
    h.ctrl->ioDelay = sim::microseconds(10);
    submit(1000);
    h.sim.runFor(sim::microseconds(55));
    ASSERT_EQ(h.ctrl->ioSeen, 63);
    std::uint16_t cid_b = submit(2000);
    ASSERT_TRUE(test::runUntil(h.sim, [&] { return cqes.size() == 64; }));
    EXPECT_EQ(cqes[62].sqHead, 64u);
    EXPECT_EQ(seenAtCqe, 64) << "B arrived after A's CQE was consumed";

    EXPECT_EQ(h.ctrl->lastIo.cid, cid_b);
    EXPECT_EQ(h.ctrl->lastIo.slba(), 2000u);
    EXPECT_EQ(cqes[63].cid, cid_b);
    EXPECT_TRUE(cqes[63].ok());
    // Both done and the tail on the second page: the first page went.
    std::uint8_t raw[sizeof(Sqe)];
    h.up.read(0x30000 + 63 * sizeof(Sqe), sizeof(raw), raw);
    EXPECT_EQ(nvme::fromBytes<Sqe>(raw).slba(), 0u);
}
