/**
 * @file
 * Multi-SQ fetch arbitration tests: WRR weights are honored within
 * tolerance, plain RR is starvation-free under asymmetric load, and
 * doorbell batching / fetch coalescing never reorder SQEs within one
 * submission queue, and SQs at sparse qids, one deleted and created
 * again mid-run, are served in a pinned order.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "nvme/controller.hh"
#include "tests/test_util.hh"

using namespace bms;
using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Controller that records dispatch order and holds completions. */
class RecordingController : public nvme::ControllerModel
{
  public:
    RecordingController(sim::Simulator &sim, Config cfg)
        : ControllerModel(sim, "arb", cfg)
    {}

    /** (sqid, cid) in the order executeIo saw them. */
    std::vector<std::pair<std::uint16_t, std::uint16_t>> order;

  protected:
    void
    executeIo(Handle h) override
    {
        order.emplace_back(sqid(h), sqe(h).cid);
        complete(h, Status::Success);
    }
};

/** Multi-queue driver shim against a FakeUpstream memory. */
class ArbHarness
{
  public:
    sim::Simulator sim{11};
    test::FakeUpstream up{sim};
    RecordingController *ctrl;
    test::RingInitiator host{
        sim, up, [this](std::uint64_t offset, std::uint64_t value) {
            ctrl->regWrite(offset, value);
        }};

    static constexpr std::uint16_t kDepth = 1024;

    explicit ArbHarness(nvme::ControllerModel::Config cfg)
    {
        cfg.fn = 1;
        ctrl = sim.make<RecordingController>(sim, cfg);
        ctrl->setUpstream(&up);
        nvme::NamespaceInfo ns;
        ns.nsid = 1;
        ns.sizeBlocks = 1 << 20;
        ctrl->addNamespace(ns);
        host.enable();
    }

    /** Create IO queue pair @p qid with WRR class @p prio. */
    void
    createQueue(std::uint16_t qid, std::uint8_t prio)
    {
        host.createIoQueue(qid, kDepth, 0x100000ull + qid * 0x40000ull,
                           0x2000000ull + qid * 0x40000ull, prio);
        ASSERT_TRUE(ctrl->sqSnapshot(qid).valid);
        EXPECT_EQ(ctrl->sqSnapshot(qid).prio, prio & 0x3);
    }

    /** Append @p n read SQEs to @p qid's ring without ringing. */
    void
    fill(std::uint16_t qid, int n)
    {
        for (int i = 0; i < n; ++i) {
            Sqe sqe;
            sqe.opcode = static_cast<std::uint8_t>(IoOpcode::Read);
            sqe.nsid = 1;
            sqe.prp1 = 0x8000000;
            sqe.setSlba(0);
            sqe.setNlb(1);
            host.place(qid, sqe);
        }
    }

    /** Ring @p qid's doorbell at the current tail. */
    void ring(std::uint16_t qid) { host.ring(qid); }

    /** Dispatches seen for @p sqid. */
    int
    seen(std::uint16_t sqid) const
    {
        int n = 0;
        for (const auto &[q, c] : ctrl->order)
            if (q == sqid)
                ++n;
        return n;
    }
};

} // namespace

// Three saturated queues in distinct WRR classes must be fetched in
// proportion to their class weights (4:2:1) — measured
// mid-drain, before any class's backlog runs dry.
TEST(Arbitration, WrrWeightsHonoredWithinTolerance)
{
    nvme::ControllerModel::Config cfg;
    cfg.arb = nvme::ArbitrationMode::WeightedRoundRobin;
    cfg.arbBurst = 4;
    ArbHarness h(cfg);
    h.createQueue(1, nvme::kQPrioHigh);
    h.createQueue(2, nvme::kQPrioMedium);
    h.createQueue(3, nvme::kQPrioLow);

    const int backlog = 512;
    h.fill(1, backlog);
    h.fill(2, backlog);
    h.fill(3, backlog);
    h.ring(1);
    h.ring(2);
    h.ring(3);
    // Sample once the high class is ~3/4 drained; every class still
    // has backlog at that point, so the ratios reflect pure WRR.
    // Step single events: with a zero doorbell-batch window the whole
    // drain fits inside one coarse runUntil step.
    while (h.ctrl->sqSnapshot(1).fetched < 384) {
        ASSERT_TRUE(h.sim.queue().runOne());
    }
    double high = static_cast<double>(h.ctrl->sqSnapshot(1).fetched);
    double medium = static_cast<double>(h.ctrl->sqSnapshot(2).fetched);
    double low = static_cast<double>(h.ctrl->sqSnapshot(3).fetched);
    ASSERT_GT(medium, 0.0);
    ASSERT_GT(low, 0.0);
    EXPECT_LT(h.ctrl->sqSnapshot(2).fetched, backlog);
    EXPECT_LT(h.ctrl->sqSnapshot(3).fetched, backlog);
    // Weights 4:2:1 → pairwise ratios of 2, within 35% tolerance.
    EXPECT_NEAR(high / medium, 2.0, 0.7);
    EXPECT_NEAR(medium / low, 2.0, 0.7);
}

// Urgent is strict priority: while an urgent queue has backlog, the
// weighted classes get nothing.
TEST(Arbitration, UrgentClassPreemptsWeightedClasses)
{
    nvme::ControllerModel::Config cfg;
    cfg.arb = nvme::ArbitrationMode::WeightedRoundRobin;
    cfg.arbBurst = 4;
    ArbHarness h(cfg);
    h.createQueue(1, nvme::kQPrioUrgent);
    h.createQueue(2, nvme::kQPrioHigh);
    h.fill(1, 64);
    h.fill(2, 64);
    h.ring(1);
    h.ring(2);
    ASSERT_TRUE(test::runUntil(h.sim, [&] {
        return h.seen(1) + h.seen(2) >= 128;
    }));
    // All 64 urgent commands were dispatched before the last high
    // command; high may only interleave after urgent drained.
    std::size_t last_urgent = 0, first_high = SIZE_MAX;
    for (std::size_t i = 0; i < h.ctrl->order.size(); ++i) {
        if (h.ctrl->order[i].first == 1)
            last_urgent = i;
        else if (first_high == SIZE_MAX)
            first_high = i;
    }
    EXPECT_LT(last_urgent, 64u + cfg.arbBurst);
    EXPECT_GT(first_high + 64u, last_urgent);
}

// Plain RR with one deep and one shallow queue: the shallow queue's
// commands must all dispatch near the front, not behind the deep
// queue's backlog.
TEST(Arbitration, RrIsStarvationFreeUnderAsymmetricLoad)
{
    nvme::ControllerModel::Config cfg;
    cfg.arb = nvme::ArbitrationMode::RoundRobin;
    cfg.arbBurst = 4;
    ArbHarness h(cfg);
    h.createQueue(1, nvme::kQPrioMedium);
    h.createQueue(2, nvme::kQPrioMedium);
    h.fill(1, 256); // the bully
    h.fill(2, 8);   // the victim
    h.ring(1);
    h.ring(2);
    ASSERT_TRUE(test::runUntil(h.sim, [&] { return h.seen(2) == 8; }));
    // With burst 4 the victim's 8 commands ride the first two RR
    // rounds: all of them land within the first 4 bursts dispatched.
    std::size_t last_victim = 0;
    for (std::size_t i = 0; i < h.ctrl->order.size(); ++i)
        if (h.ctrl->order[i].first == 2)
            last_victim = i;
    EXPECT_LT(last_victim, 32u);
    // And the bully still drains completely afterwards.
    ASSERT_TRUE(test::runUntil(h.sim, [&] { return h.seen(1) == 256; }));
}

// Doorbell batching and SQE fetch coalescing must never reorder
// commands within one SQ, no matter how rings and bursts align.
TEST(Arbitration, DoorbellBatchingPreservesSqOrder)
{
    nvme::ControllerModel::Config cfg;
    cfg.arb = nvme::ArbitrationMode::RoundRobin;
    cfg.arbBurst = 8;
    cfg.doorbellBatchDelay = sim::nanoseconds(200);
    ArbHarness h(cfg);
    h.createQueue(1, nvme::kQPrioMedium);
    h.createQueue(2, nvme::kQPrioMedium);
    // Dribble commands in uneven clumps with rapid doorbell rings so
    // several rings coalesce into single arbitration passes.
    int total1 = 0, total2 = 0;
    for (int burst = 1; burst <= 13; ++burst) {
        h.fill(1, burst);
        total1 += burst;
        h.ring(1);
        h.fill(2, 14 - burst);
        total2 += 14 - burst;
        h.ring(2);
        h.sim.runFor(sim::nanoseconds(50 * burst));
    }
    ASSERT_TRUE(test::runUntil(h.sim, [&] {
        return h.seen(1) == total1 && h.seen(2) == total2;
    }));
    // Per-SQ cids must appear in strictly increasing order.
    std::uint16_t next1 = 0, next2 = 0;
    for (const auto &[sqid, cid] : h.ctrl->order) {
        if (sqid == 1)
            EXPECT_EQ(cid, next1++);
        else
            EXPECT_EQ(cid, next2++);
    }
    // The rapid rings actually exercised the batching window...
    EXPECT_GT(h.ctrl->doorbellsCoalesced(), 0u);
    // ...and multi-SQE fetches actually coalesced DMAs.
    EXPECT_LT(h.ctrl->fetchBatches(), h.ctrl->fetchedSqes());
}

// The coalesced fetch path must stop at the ring-wrap point and pick
// up the remainder afterwards, still in order.
TEST(Arbitration, FetchCoalescingHandlesRingWrap)
{
    nvme::ControllerModel::Config cfg;
    cfg.arb = nvme::ArbitrationMode::RoundRobin;
    cfg.arbBurst = 16;
    ArbHarness h(cfg);
    h.createQueue(1, nvme::kQPrioMedium);
    // March the ring almost to the end, drain, then queue a clump
    // that straddles the wrap point.
    const int warm = ArbHarness::kDepth - 5;
    h.fill(1, warm);
    h.ring(1);
    ASSERT_TRUE(test::runUntil(h.sim, [&] { return h.seen(1) == warm; }));
    h.fill(1, 12); // 5 before the wrap, 7 after
    h.ring(1);
    ASSERT_TRUE(
        test::runUntil(h.sim, [&] { return h.seen(1) == warm + 12; }));
    std::uint16_t next = 0;
    for (const auto &[sqid, cid] : h.ctrl->order)
        EXPECT_EQ(cid, next++);
}

namespace {

/** Dispatches from @p from on, as runs of "sqid:count". */
std::string
dispatchRuns(const std::vector<std::pair<std::uint16_t, std::uint16_t>> &order,
             std::size_t from)
{
    std::string runs;
    for (std::size_t i = from; i < order.size();) {
        std::size_t j = i;
        while (j < order.size() && order[j].first == order[i].first)
            ++j;
        if (!runs.empty())
            runs += ' ';
        runs += std::to_string(order[i].first) + ":" + std::to_string(j - i);
        i = j;
    }
    return runs;
}

/**
 * SQs 1, 3 and 40 in classes @p prio, bursts of 2: a backlog on all
 * three; then, with 40 deleted, on 1 and 3; then on all three once 40
 * is created again in class @p prio40. @p phases gets each phase's
 * dispatch runs.
 */
void
sparseFetchOrder(nvme::ArbitrationMode mode,
                 const std::array<std::uint8_t, 3> &prio,
                 std::uint8_t prio40, std::vector<std::string> &phases)
{
    nvme::ControllerModel::Config cfg;
    cfg.arb = mode;
    cfg.arbBurst = 2;
    ArbHarness h(cfg);
    h.createQueue(1, prio[0]);
    h.createQueue(3, prio[1]);
    h.createQueue(40, prio[2]);
    std::size_t from = 0;
    auto drain = [&](std::size_t total) {
        ASSERT_TRUE(test::runUntil(
            h.sim, [&] { return h.ctrl->order.size() == total; }));
        phases.push_back(dispatchRuns(h.ctrl->order, from));
        from = total;
    };

    h.fill(1, 10);
    h.fill(3, 6);
    h.fill(40, 8);
    h.ring(1);
    h.ring(3);
    h.ring(40);
    drain(24);

    Sqe del;
    del.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::DeleteIoSq);
    del.cdw10 = 40;
    ASSERT_TRUE(h.host.submit(0, del).ok());
    del.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::DeleteIoCq);
    ASSERT_TRUE(h.host.submit(0, del).ok());
    ASSERT_FALSE(h.ctrl->sqSnapshot(40).valid);
    EXPECT_EQ(h.ctrl->ioSqCount(), 2u);
    h.fill(1, 7);
    h.fill(3, 5);
    h.ring(3);
    h.ring(1);
    drain(36);

    h.createQueue(40, prio40);
    h.fill(1, 6);
    h.fill(3, 4);
    h.fill(40, 9);
    h.ring(40);
    h.ring(1);
    h.ring(3);
    drain(55);
}

} // namespace

// Plain RR over SQs at sparse qids: every backlogged queue gets one
// burst per turn in qid order from the cursor, through a delete and a
// re-create of the highest one.
TEST(Arbitration, SparseQueuesRoundRobinOrderIsPinned)
{
    std::vector<std::string> phases;
    sparseFetchOrder(nvme::ArbitrationMode::RoundRobin,
                     {nvme::kQPrioMedium, nvme::kQPrioMedium,
                      nvme::kQPrioMedium},
                     nvme::kQPrioMedium, phases);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0], "1:2 3:2 40:2 1:2 3:2 40:2 1:2 3:2 40:2 1:2 40:2 1:2");
    EXPECT_EQ(phases[1], "3:2 1:2 3:2 1:2 3:1 1:3");
    EXPECT_EQ(phases[2], "3:2 40:2 1:2 3:2 40:2 1:2 40:2 1:2 40:3");
}

// WRR over the same layout: high, medium and low at 1, 3 and 40, and
// 40 back as a second high queue, so the high class's cursor wraps
// past the top qid.
TEST(Arbitration, SparseQueuesWeightedOrderIsPinned)
{
    std::vector<std::string> phases;
    sparseFetchOrder(nvme::ArbitrationMode::WeightedRoundRobin,
                     {nvme::kQPrioHigh, nvme::kQPrioMedium,
                      nvme::kQPrioLow},
                     nvme::kQPrioHigh, phases);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0], "1:8 3:4 40:2 1:2 3:2 40:6");
    EXPECT_EQ(phases[1], "1:7 3:5");
    EXPECT_EQ(phases[2], "40:2 1:2 40:2 1:2 3:4 40:2 1:2 40:3");
}
