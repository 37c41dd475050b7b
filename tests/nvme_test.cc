/**
 * @file
 * Unit tests of the NVMe substrate: wire formats, doorbell decoding,
 * PRP build/decode round trips, the initiator queue pair.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nvme/defs.hh"
#include "nvme/prp.hh"
#include "nvme/queue_pair.hh"
#include "sim/sparse_memory.hh"

using namespace bms::nvme;

namespace {

/** In-process MemoryIf for PRP tests. */
class TestMemory : public bms::pcie::MemoryIf
{
  public:
    void
    read(std::uint64_t addr, std::uint32_t len,
         bms::sim::DataOut out) override
    {
        _mem.read(addr, len, out);
    }
    void
    write(std::uint64_t addr, std::uint32_t len,
          bms::sim::DataIn data) override
    {
        _mem.write(addr, len, data);
    }

  private:
    bms::sim::PageStore _store;
    bms::sim::SparseMemory _mem{_store};
};

} // namespace

TEST(NvmeDefs, WireSizes)
{
    EXPECT_EQ(sizeof(Sqe), 64u);
    EXPECT_EQ(sizeof(Cqe), 16u);
}

TEST(NvmeDefs, SlbaNlbRoundTrip)
{
    Sqe sqe;
    sqe.setSlba(0x1'2345'6789ull);
    sqe.setNlb(32);
    EXPECT_EQ(sqe.slba(), 0x1'2345'6789ull);
    EXPECT_EQ(sqe.nlb(), 32u);
    EXPECT_EQ(sqe.dataBytes(), 32u * kBlockSize);
    // NLB is 0-based 16 bits on the wire.
    EXPECT_EQ(sqe.cdw12 & 0xffff, 31u);
}

TEST(NvmeDefs, CqeStatusPhase)
{
    Cqe cqe;
    cqe.setStatusPhase(Status::LbaOutOfRange, true);
    EXPECT_EQ(cqe.status(), Status::LbaOutOfRange);
    EXPECT_TRUE(cqe.phase());
    EXPECT_FALSE(cqe.ok());
    cqe.setStatusPhase(Status::Success, false);
    EXPECT_TRUE(cqe.ok());
    EXPECT_FALSE(cqe.phase());
}

TEST(NvmeDefs, BytesRoundTrip)
{
    Sqe sqe;
    sqe.opcode = 0x02;
    sqe.cid = 0xBEEF;
    sqe.nsid = 7;
    sqe.prp1 = 0x1000;
    std::uint8_t raw[64];
    toBytes(sqe, raw);
    Sqe back = fromBytes<Sqe>(raw);
    EXPECT_EQ(back.opcode, 0x02);
    EXPECT_EQ(back.cid, 0xBEEF);
    EXPECT_EQ(back.nsid, 7u);
    EXPECT_EQ(back.prp1, 0x1000u);
}

TEST(NvmeDefs, DoorbellDecode)
{
    DoorbellRef sq0 = decodeDoorbell(sqDoorbellOffset(0));
    EXPECT_TRUE(sq0.valid);
    EXPECT_TRUE(sq0.isSq);
    EXPECT_EQ(sq0.qid, 0);

    DoorbellRef cq3 = decodeDoorbell(cqDoorbellOffset(3));
    EXPECT_TRUE(cq3.valid);
    EXPECT_FALSE(cq3.isSq);
    EXPECT_EQ(cq3.qid, 3);

    EXPECT_FALSE(decodeDoorbell(kRegCc).valid);
}

TEST(Prp, PageCount)
{
    EXPECT_EQ(prpPageCount(0, 0), 0u);
    EXPECT_EQ(prpPageCount(0, 1), 1u);
    EXPECT_EQ(prpPageCount(0, 4096), 1u);
    EXPECT_EQ(prpPageCount(0, 4097), 2u);
    EXPECT_EQ(prpPageCount(4095, 2), 2u); // offset crosses boundary
    EXPECT_EQ(prpPageCount(0, 128 * 1024), 32u);
}

TEST(Prp, SinglePageNoList)
{
    TestMemory mem;
    PrpPair p = buildPrp(0x10000, 4096, 0x9000, mem);
    EXPECT_EQ(p.prp1, 0x10000u);
    EXPECT_EQ(p.prp2, 0u);
    EXPECT_FALSE(p.hasList);
    auto segs = decodePrp(p.prp1, p.prp2, 4096, {});
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].addr, 0x10000u);
    EXPECT_EQ(segs[0].len, 4096u);
}

TEST(Prp, TwoPagesDirectPrp2)
{
    TestMemory mem;
    PrpPair p = buildPrp(0x10000, 8192, 0x9000, mem);
    EXPECT_EQ(p.prp2, 0x11000u);
    EXPECT_FALSE(p.hasList);
    auto segs = decodePrp(p.prp1, p.prp2, 8192, {});
    // Contiguous pages coalesce into one segment.
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].len, 8192u);
}

TEST(Prp, ListBuildAndDecode128k)
{
    TestMemory mem;
    std::uint64_t len = 128 * 1024;
    PrpPair p = buildPrp(0x200000, len, 0x9000, mem);
    EXPECT_TRUE(p.hasList);
    EXPECT_EQ(p.prp2, 0x9000u);
    EXPECT_EQ(p.listEntries, 31u);

    // Read the list back like a device would.
    std::vector<std::uint64_t> entries(p.listEntries);
    mem.read(0x9000, p.listEntries * 8,
             reinterpret_cast<std::uint8_t *>(entries.data()));
    for (std::uint32_t i = 0; i < p.listEntries; ++i)
        EXPECT_EQ(entries[i], 0x200000 + (i + 1) * 4096ull);

    auto segs = decodePrp(p.prp1, p.prp2, len, entries);
    ASSERT_EQ(segs.size(), 1u); // fully contiguous buffer
    EXPECT_EQ(segs[0].addr, 0x200000u);
    EXPECT_EQ(segs[0].len, len);
}

TEST(Prp, ScatteredListDoesNotCoalesce)
{
    std::vector<std::uint64_t> entries = {0x30000, 0x50000, 0x51000};
    auto segs = decodePrp(0x10000, 0xdead, 4 * 4096, entries);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0].addr, 0x10000u);
    EXPECT_EQ(segs[1].addr, 0x30000u);
    EXPECT_EQ(segs[2].addr, 0x50000u);
    EXPECT_EQ(segs[2].len, 8192u); // last two pages contiguous
}

TEST(Prp, OffsetFirstPage)
{
    auto segs = decodePrp(0x10800, 0x20000, 4096, {});
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_EQ(segs[0].addr, 0x10800u);
    EXPECT_EQ(segs[0].len, 2048u);
    EXPECT_EQ(segs[1].addr, 0x20000u);
    EXPECT_EQ(segs[1].len, 2048u);
}

/** Property sweep: build+decode covers the transfer exactly once. */
class PrpProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PrpProperty, CoversTransferExactly)
{
    TestMemory mem;
    std::uint64_t len = GetParam();
    std::uint64_t base = 0x400000;
    PrpPair p = buildPrp(base, len, 0x8000, mem);
    std::vector<std::uint64_t> entries;
    if (p.hasList) {
        entries.resize(p.listEntries);
        mem.read(p.prp2, p.listEntries * 8,
                 reinterpret_cast<std::uint8_t *>(entries.data()));
    }
    auto segs = decodePrp(p.prp1, p.prp2, len, entries);
    std::uint64_t covered = 0;
    std::uint64_t expect_addr = base;
    for (const auto &s : segs) {
        EXPECT_EQ(s.addr, expect_addr);
        covered += s.len;
        expect_addr += s.len;
    }
    EXPECT_EQ(covered, len);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PrpProperty,
    ::testing::Values(512, 4096, 8192, 12288, 65536, 131072, 1048576,
                      2 * 1048576));

namespace {

constexpr std::uint64_t kSq = 0x10000;
constexpr std::uint64_t kCq = 0x20000;

/** Play the controller: post a CQE for @p cid at CQ slot @p slot. */
void
postCqe(TestMemory &mem, std::uint16_t slot, std::uint16_t cid, bool phase)
{
    Cqe cqe;
    cqe.cid = cid;
    cqe.setStatusPhase(Status::Success, phase);
    std::uint8_t raw[sizeof(Cqe)];
    toBytes(cqe, raw);
    mem.write(kCq + slot * sizeof(Cqe), sizeof(raw), raw);
}

Sqe
sqeAt(TestMemory &mem, std::uint16_t slot)
{
    std::uint8_t raw[sizeof(Sqe)];
    mem.read(kSq + slot * sizeof(Sqe), sizeof(raw), raw);
    return fromBytes<Sqe>(raw);
}

/** Complete @p cid on @p qp, expecting no parked command to start. */
template <typename Cmd>
Cmd
completeIdle(QueuePair<Cmd> &qp, std::uint16_t cid)
{
    Cmd out{};
    qp.complete(
        cid, [&](Cmd c) { out = std::move(c); },
        [](std::uint16_t) { ADD_FAILURE() << "nothing was parked"; });
    return out;
}

} // namespace

// Three laps over a 4-entry pair: the SQ tail wraps, the CQ phase flips
// at each lap, and a CQE left from the lap before never pops as new.
TEST(QueuePair, ThreeLapsWrapTailAndFlipPhase)
{
    TestMemory mem;
    QueuePair<int> qp(mem, 1, 4, kSq, kCq);
    bool phase = true; // the controller's
    for (int n = 0; n < 12; ++n) {
        auto slot = static_cast<std::uint16_t>(n % 4);
        EXPECT_FALSE(qp.pop()) << "stale CQE popped at command " << n;
        std::optional<std::uint16_t> cid = qp.admit(n);
        ASSERT_TRUE(cid);
        Sqe sqe;
        sqe.opcode = static_cast<std::uint8_t>(IoOpcode::Read);
        sqe.cdw10 = static_cast<std::uint32_t>(n);
        RegWrite ring = qp.push(sqe, *cid);
        EXPECT_EQ(ring.offset, sqDoorbellOffset(1));
        EXPECT_EQ(ring.value, (slot + 1u) % 4);
        EXPECT_EQ(sqeAt(mem, slot).cdw10, static_cast<std::uint32_t>(n));
        EXPECT_EQ(sqeAt(mem, slot).cid, *cid);

        postCqe(mem, slot, *cid, phase);
        std::optional<Cqe> cqe = qp.pop();
        ASSERT_TRUE(cqe);
        EXPECT_EQ(cqe->cid, *cid);
        EXPECT_EQ(qp.cqDoorbell().offset, cqDoorbellOffset(1));
        EXPECT_EQ(qp.cqDoorbell().value, (slot + 1u) % 4);
        EXPECT_EQ(completeIdle(qp, cqe->cid), n);
        if (slot == 3)
            phase = !phase;
    }
    EXPECT_FALSE(qp.pop());
}

// A ring of N entries holds N - 1 commands: with N the tail would equal
// the head, which the controller reads as empty.
TEST(QueuePair, FourEntriesHoldThreeCommands)
{
    TestMemory mem;
    QueuePair<int> qp(mem, 1, 4, kSq, kCq);
    EXPECT_EQ(qp.admit(10), std::optional<std::uint16_t>(0));
    EXPECT_EQ(qp.admit(11), std::optional<std::uint16_t>(1));
    EXPECT_EQ(qp.admit(12), std::optional<std::uint16_t>(2));
    EXPECT_EQ(qp.inflight(), 3u);
    EXPECT_FALSE(qp.admit(13));
    EXPECT_EQ(qp.inflight(), 3u);
}

// Released CIDs go out again most recent first, then the lowest one
// never used.
TEST(QueuePair, ReleasedCidsReturnMostRecentFirst)
{
    TestMemory mem;
    QueuePair<int> qp(mem, 1, 8, kSq, kCq);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(qp.admit(i), std::optional<std::uint16_t>(i));
    completeIdle(qp, 2);
    completeIdle(qp, 0);
    EXPECT_EQ(qp.admit(20), std::optional<std::uint16_t>(0));
    EXPECT_EQ(qp.admit(21), std::optional<std::uint16_t>(2));
    EXPECT_EQ(qp.admit(22), std::optional<std::uint16_t>(4));
    EXPECT_EQ(qp.admit(23), std::optional<std::uint16_t>(5));
    EXPECT_EQ(qp[2], 21);
}

// Commands that found no CID leave in arrival order, each once a
// completion has freed a CID and run its own command first.
TEST(QueuePair, WaitingCommandsLeaveInArrivalOrder)
{
    TestMemory mem;
    QueuePair<int> qp(mem, 1, 3, kSq, kCq); // two CIDs
    EXPECT_TRUE(qp.admit(100));
    EXPECT_TRUE(qp.admit(101));
    for (int v = 102; v < 105; ++v)
        EXPECT_FALSE(qp.admit(v));

    std::vector<std::string> log;
    auto finish = [&](std::uint16_t cid) {
        std::uint32_t before = qp.inflight();
        qp.complete(
            cid,
            [&](int v) {
                // The CID is free before the command's own work runs.
                EXPECT_EQ(qp.inflight(), before - 1);
                log.push_back("run " + std::to_string(v));
            },
            [&](std::uint16_t next) {
                EXPECT_EQ(next, cid);
                log.push_back("issue " + std::to_string(qp[next]));
            });
    };
    finish(1);
    finish(0);
    finish(1);
    finish(0);
    finish(1);
    EXPECT_EQ(log, (std::vector<std::string>{
                       "run 101", "issue 102", "run 100", "issue 103",
                       "run 102", "issue 104", "run 103", "run 104"}));
    EXPECT_EQ(qp.inflight(), 0u);
}
