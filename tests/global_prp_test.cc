/**
 * @file
 * Unit tests of the global PRP encoding (paper Fig. 4(b)) and the
 * chip-memory window used by the DMA router.
 */

#include <gtest/gtest.h>

#include "core/engine/chip_memory.hh"
#include "core/engine/global_prp.hh"
#include "tests/test_util.hh"
#include "core/engine/resources.hh"

using namespace bms::core;

TEST(GlobalPrp, EncodeDecodeRoundTrip)
{
    std::uint64_t host = 0x0000'1234'5678'9000ull;
    for (int fn = 0; fn < 128; fn += 13) {
        std::uint64_t g = GlobalPrp::encode(
            host, static_cast<bms::pcie::FunctionId>(fn), false);
        EXPECT_EQ(GlobalPrp::functionOf(g), fn);
        EXPECT_EQ(GlobalPrp::originalAddr(g), host);
        EXPECT_FALSE(GlobalPrp::listFlag(g));
    }
}

TEST(GlobalPrp, ListFlagBit56)
{
    std::uint64_t g = GlobalPrp::encode(0x1000, 5, true);
    EXPECT_TRUE(GlobalPrp::listFlag(g));
    EXPECT_TRUE(g & (1ull << 56));
    EXPECT_EQ(GlobalPrp::functionOf(g), 5);
}

TEST(GlobalPrp, FunctionFieldIs7Bits)
{
    // Fig. 4(b): function id occupies bits [63:57].
    std::uint64_t g = GlobalPrp::encode(0, 127, false);
    EXPECT_EQ(g >> GlobalPrp::kFnShift, 127u);
    EXPECT_EQ(GlobalPrp::functionOf(g), 127);
}

TEST(GlobalPrp, OriginalFieldIs48Bits)
{
    std::uint64_t max_host = (1ull << 48) - 1;
    std::uint64_t g = GlobalPrp::encode(max_host, 1, false);
    EXPECT_EQ(GlobalPrp::originalAddr(g), max_host);
    // Bits above 48 would corrupt the rewrite; the engine refuses
    // instead of silently masking them away.
    EXPECT_PANIC(GlobalPrp::encode(~0ull, 1, false));
}

TEST(GlobalPrp, CheckInvariantsRoundTrips)
{
    for (bool list : {false, true}) {
        std::uint64_t g = GlobalPrp::encode(0x0000'1234'5678'9000ull,
                                            42, list);
        GlobalPrp::checkInvariants(g); // must not panic
    }
    // A reserved bit in [55:48] cannot round-trip through the
    // decode → encode path and must be rejected.
    std::uint64_t g = GlobalPrp::encode(0x1000, 3, true);
    EXPECT_PANIC(GlobalPrp::checkInvariants(g | (1ull << 50)));
}

TEST(GlobalPrp, PlainHostAddressIsNotGlobal)
{
    EXPECT_FALSE(GlobalPrp::isGlobal(0x7fff'ffff));
    EXPECT_TRUE(GlobalPrp::isGlobal(GlobalPrp::encode(0x1000, 3, false)));
    // fn 0, no list flag is indistinguishable by design — routed as
    // function 0.
    EXPECT_FALSE(GlobalPrp::isGlobal(GlobalPrp::encode(0x1000, 0, false)));
}

TEST(ChipMemory, WindowDisjointFromHostAllocations)
{
    // Host allocations stay below 2^46; chip window starts at 2^46.
    EXPECT_FALSE(ChipMemory::contains(0x0000'1234'5678));
    EXPECT_TRUE(ChipMemory::contains(ChipMemory::kWindowBase));
    EXPECT_TRUE(ChipMemory::contains(ChipMemory::kWindowBase + 4096));
}

TEST(ChipMemory, AllocReadWrite)
{
    bms::sim::PageStore store;
    ChipMemory chip(store);
    std::uint64_t a = chip.alloc(256, 64);
    std::uint64_t b = chip.alloc(256, 64);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_TRUE(ChipMemory::contains(a));
    std::uint8_t in[256], out[256] = {};
    for (int i = 0; i < 256; ++i)
        in[i] = static_cast<std::uint8_t>(255 - i);
    chip.write(a, 256, in);
    chip.read(a, 256, out);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(out[i], in[i]);
}

TEST(ChipMemory, WindowAddressFitsGlobalPrpOriginalField)
{
    bms::sim::PageStore store;
    ChipMemory chip(store);
    std::uint64_t a = chip.alloc(4096);
    std::uint64_t g = GlobalPrp::encode(a, 9, true);
    EXPECT_EQ(GlobalPrp::originalAddr(g), a);
    EXPECT_TRUE(ChipMemory::contains(GlobalPrp::originalAddr(g)));
}

// ---------------------------------------------------------------------------
// FPGA resource model (Table II fit).

TEST(FpgaResources, MatchesPaperTable2)
{
    FpgaResourceModel m;
    FpgaUtilization u1 = m.forSsds(1);
    EXPECT_EQ(u1.luts, 216711u);
    EXPECT_EQ(u1.registers, 226309u);
    EXPECT_EQ(u1.brams, 526u);
    EXPECT_NEAR(u1.urams, 49.4, 0.01);

    FpgaUtilization u2 = m.forSsds(2);
    EXPECT_EQ(u2.luts, 244711u);
    EXPECT_EQ(u2.registers, 270309u);
    EXPECT_EQ(u2.brams, 570u);
    EXPECT_NEAR(u2.urams, 59.4, 0.01);

    FpgaUtilization u4 = m.forSsds(4);
    EXPECT_EQ(u4.luts, 300711u);
    EXPECT_EQ(u4.registers, 358309u);
    EXPECT_NEAR(u4.urams, 79.4, 0.01);

    FpgaUtilization u6 = m.forSsds(6);
    EXPECT_EQ(u6.luts, 356711u);
    EXPECT_EQ(u6.registers, 446309u);
    EXPECT_NEAR(u6.urams, 99.4, 0.01);
}

TEST(FpgaResources, PercentagesMatchPaper)
{
    FpgaResourceModel m;
    FpgaUtilization u1 = m.forSsds(1);
    EXPECT_NEAR(u1.lutPct(), 41.0, 1.0);
    EXPECT_NEAR(u1.regPct(), 22.0, 1.0);
    EXPECT_NEAR(u1.bramPct(), 53.0, 1.0);
    EXPECT_NEAR(u1.uramPct(), 39.0, 1.0);
}

TEST(FpgaResources, HeadroomBeyondFourSsds)
{
    // Paper: "BM-Store can support more SSDs with the remaining
    // resources" — the model must admit more than 4.
    FpgaResourceModel m;
    EXPECT_GE(m.maxSsds(), 6);
    EXPECT_LE(m.maxSsds(), 12);
}
