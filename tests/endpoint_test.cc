/**
 * @file
 * The shared single-function NVMe endpoint (nvme::Endpoint), driven
 * through real SQ/CQ rings on each device model built on it: SSD,
 * ZNS SSD and remote volume. All three must walk PRP2 and scattered
 * PRP lists, and reject a foreign namespace or an LBA past the end of
 * namespace 1 with the status a real controller reports.
 */

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nvme/endpoint.hh"
#include "remote/network.hh"
#include "remote/remote_device.hh"
#include "remote/storage_server.hh"
#include "ssd/ssd_device.hh"
#include "ssd/zns.hh"
#include "tests/test_util.hh"

using namespace bms;
using nvme::IoOpcode;
using nvme::Status;

namespace {

/** One device model, built with functional data in @p sim. */
struct DeviceCase
{
    const char *name;
    std::function<nvme::Endpoint *(sim::Simulator &sim)> make;
};

// Print a case as its name: gtest would otherwise dump raw bytes, and
// ctest names each instance after the printed parameter.
void
PrintTo(const DeviceCase &c, std::ostream *os)
{
    *os << c.name;
}

nvme::Endpoint *
makeSsd(sim::Simulator &sim)
{
    ssd::SsdDevice::Config cfg;
    cfg.functionalData = true;
    return sim.make<ssd::SsdDevice>(sim, "ssd", cfg);
}

nvme::Endpoint *
makeZns(sim::Simulator &sim)
{
    ssd::ZnsSsd::Config cfg;
    cfg.functionalData = true;
    return sim.make<ssd::ZnsSsd>(sim, "zns", cfg);
}

nvme::Endpoint *
makeRemote(sim::Simulator &sim)
{
    remote::StorageServer::Config scfg;
    scfg.ssd.functionalData = true;
    auto *server = sim.make<remote::StorageServer>(sim, "target", scfg);
    int vol = server->addVolume({0, 0, sim::mib(64)});
    auto *link = sim.make<remote::NetworkLink>(sim, "net");
    return sim.make<remote::RemoteNvmeDevice>(sim, "rvol", *link, *server,
                                              vol);
}

constexpr std::uint32_t kPage = nvme::kPageSize;

/** Ring-level driver for one endpoint over a FakeUpstream. */
class EndpointTest : public ::testing::TestWithParam<DeviceCase>
{
  protected:
    sim::Simulator sim{91};
    test::FakeUpstream up{sim};
    nvme::Endpoint *dev;
    test::RingInitiator host{
        sim, up, [this](std::uint64_t offset, std::uint64_t value) {
            dev->mmioWrite(0, offset, value);
        }};

    EndpointTest() : dev(GetParam().make(sim))
    {
        dev->attached(up);
        host.enable();
        host.createIoQueue(1, 64, 0x30000, 0x40000);
    }

    /** Read or write @p blocks at @p slba through (prp1, prp2). */
    nvme::Cqe
    rw(IoOpcode op, std::uint64_t slba, std::uint32_t blocks,
       std::uint64_t prp1, std::uint64_t prp2, std::uint32_t nsid = 1)
    {
        return host.submit(1, rwSqe(op, slba, blocks, prp1, prp2, nsid));
    }

    static nvme::Sqe
    rwSqe(IoOpcode op, std::uint64_t slba, std::uint32_t blocks,
          std::uint64_t prp1, std::uint64_t prp2, std::uint32_t nsid = 1)
    {
        nvme::Sqe s;
        s.opcode = static_cast<std::uint8_t>(op);
        s.nsid = nsid;
        s.setSlba(slba);
        s.setNlb(blocks);
        s.prp1 = prp1;
        s.prp2 = prp2;
        return s;
    }

    /** Store a PRP list at @p addr. */
    void
    prpList(std::uint64_t addr, const std::vector<std::uint64_t> &entries)
    {
        const auto *raw =
            reinterpret_cast<const std::uint8_t *>(entries.data());
        up.memory.write(addr, entries.size() * sizeof(std::uint64_t), raw);
    }

    /** Fill the page at @p addr with a pattern unique to @p seed. */
    std::vector<std::uint8_t>
    fillPage(std::uint64_t addr, std::uint8_t seed)
    {
        std::vector<std::uint8_t> v(kPage);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 7);
        up.memory.write(addr, kPage, v.data());
        return v;
    }

    std::vector<std::uint8_t>
    page(std::uint64_t addr)
    {
        std::vector<std::uint8_t> v(kPage);
        up.memory.read(addr, kPage, v.data());
        return v;
    }

    std::uint64_t
    nsBlocks() const
    {
        return dev->controller().findNamespace(1)->sizeBlocks;
    }
};

} // namespace

// (a) PRP1 and a direct PRP2 naming non-adjacent pages, both ways.
TEST_P(EndpointTest, TwoPagesThroughDirectPrp2)
{
    auto a = fillPage(0x200000, 0x11);
    fillPage(0x201000, 0xEE); // the page after A must not be stored
    auto c = fillPage(0x203000, 0x33);
    ASSERT_TRUE(rw(IoOpcode::Write, 0, 2, 0x200000, 0x203000).ok());

    ASSERT_TRUE(rw(IoOpcode::Read, 0, 2, 0x300000, 0x308000).ok());
    EXPECT_EQ(page(0x300000), a);
    EXPECT_EQ(page(0x308000), c);
    EXPECT_EQ(page(0x301000), std::vector<std::uint8_t>(kPage, 0));
}

// (b) Three pages through a PRP list whose entries are scattered.
TEST_P(EndpointTest, ThreePagesThroughScatteredPrpList)
{
    auto p0 = fillPage(0x200000, 0x21);
    auto p1 = fillPage(0x240000, 0x42);
    auto p2 = fillPage(0x210000, 0x63);
    prpList(0x280000, {0x240000, 0x210000});
    ASSERT_TRUE(rw(IoOpcode::Write, 0, 3, 0x200000, 0x280000).ok());

    prpList(0x290000, {0x3a0000, 0x320000});
    ASSERT_TRUE(rw(IoOpcode::Read, 0, 3, 0x350000, 0x290000).ok());
    EXPECT_EQ(page(0x350000), p0);
    EXPECT_EQ(page(0x3a0000), p1);
    EXPECT_EQ(page(0x320000), p2);
}

// (c) Only namespace 1 exists.
TEST_P(EndpointTest, ForeignNamespaceIsInvalid)
{
    fillPage(0x200000, 0x55);
    EXPECT_EQ(rw(IoOpcode::Write, 0, 1, 0x200000, 0, 2).status(),
              Status::InvalidNamespace);
    EXPECT_EQ(rw(IoOpcode::Read, 0, 1, 0x300000, 0, 2).status(),
              Status::InvalidNamespace);
}

// (d) A range ending past namespace 1 is refused: whole, straddling the
// end, or wrapping.
TEST_P(EndpointTest, LbaPastTheEndIsOutOfRange)
{
    std::uint64_t end = nsBlocks();
    EXPECT_EQ(rw(IoOpcode::Read, end, 1, 0x300000, 0).status(),
              Status::LbaOutOfRange);
    EXPECT_EQ(rw(IoOpcode::Read, end - 1, 2, 0x300000, 0x308000).status(),
              Status::LbaOutOfRange);
    // An SLBA so large that SLBA + NLB wraps past zero.
    EXPECT_EQ(rw(IoOpcode::Read, ~0ull, 2, 0x300000, 0x308000).status(),
              Status::LbaOutOfRange);
    EXPECT_EQ(rw(IoOpcode::Write, end, 1, 0x200000, 0).status(),
              Status::LbaOutOfRange);
}

INSTANTIATE_TEST_SUITE_P(Devices, EndpointTest,
                         ::testing::Values(DeviceCase{"Ssd", makeSsd},
                                           DeviceCase{"Zns", makeZns},
                                           DeviceCase{"Remote", makeRemote}));

namespace {

/** The endpoints whose payload moves between flash and host pages. */
class FlashEndpointTest : public EndpointTest
{
  protected:
    /**
     * Post a write of the page at @p addr over block 0. A zone only
     * takes writes at its write pointer, so ZNS resets zone 0 first.
     */
    void
    postOverwrite(std::uint64_t addr)
    {
        if (std::string(GetParam().name) == "Zns") {
            nvme::Sqe reset;
            reset.opcode = ssd::kOpZoneMgmtSend;
            reset.nsid = 1;
            reset.cdw13 = static_cast<std::uint32_t>(ssd::ZoneAction::Reset);
            host.post(1, reset);
        }
        host.post(1, rwSqe(IoOpcode::Write, 0, 1, addr, 0));
    }

    std::size_t
    flashPages() const
    {
        if (const auto *s = dynamic_cast<const ssd::SsdDevice *>(dev))
            return const_cast<ssd::SsdDevice *>(s)->flash().allocatedPages();
        return dynamic_cast<const ssd::ZnsSsd &>(*dev).flash().allocatedPages();
    }
};

} // namespace

// A read takes its pages at the flash access: a write that lands on
// the same LBA before the read's DMA completes cannot change the bytes
// the read delivers, and a later read sees the new ones.
TEST_P(FlashEndpointTest, OverwriteBeforeDmaCompletionDeliversOldBytes)
{
    auto old_page = fillPage(0x200000, 0x11);
    ASSERT_TRUE(rw(IoOpcode::Write, 0, 1, 0x200000, 0).ok());
    auto new_page = fillPage(0x210000, 0x77);

    // Data landing in host memory now takes 1 ms: the read's pages sit
    // in flight from its flash access on.
    up.writeDelay = sim::milliseconds(1);
    std::uint64_t writes = up.dmaWrites;
    host.post(1, rwSqe(IoOpcode::Read, 0, 1, 0x300000, 0));
    ASSERT_TRUE(test::runUntil(sim, [&] { return up.dmaWrites > writes; }));
    postOverwrite(0x210000);
    int cqes = std::string(GetParam().name) == "Zns" ? 3 : 2;
    for (int i = 0; i < cqes; ++i)
        EXPECT_TRUE(host.reap(1).ok());
    EXPECT_EQ(page(0x300000), old_page);

    up.writeDelay = 1;
    ASSERT_TRUE(rw(IoOpcode::Read, 0, 1, 0x308000, 0).ok());
    EXPECT_EQ(page(0x308000), new_page);
}

// A finished transfer holds no media pages. A read whose pages leave
// the flash while it is in flight (a write replaces its block) and a
// write that reuses a finished command's record must leave only the
// flash's pages and the test's buffers live.
TEST_P(FlashEndpointTest, FinishedTransferHoldsNoPages)
{
    fillPage(0x200000, 0x11);
    ASSERT_TRUE(rw(IoOpcode::Write, 0, 1, 0x200000, 0).ok());
    fillPage(0x210000, 0x77);
    up.writeDelay = sim::milliseconds(1);
    std::uint64_t writes = up.dmaWrites;
    host.post(1, rwSqe(IoOpcode::Read, 0, 1, 0x300000, 0));
    ASSERT_TRUE(test::runUntil(sim, [&] { return up.dmaWrites > writes; }));
    postOverwrite(0x210000);
    int cqes = std::string(GetParam().name) == "Zns" ? 3 : 2;
    for (int i = 0; i < cqes; ++i)
        EXPECT_TRUE(host.reap(1).ok());

    // Fresh frames in every buffer: no page is shared with the flash.
    for (std::uint64_t addr : {0x200000, 0x210000, 0x300000})
        fillPage(addr, 0x5a);
    EXPECT_EQ(sim.pages().livePages(),
              flashPages() + up.memory.allocatedPages());
}

INSTANTIATE_TEST_SUITE_P(Devices, FlashEndpointTest,
                         ::testing::Values(DeviceCase{"Ssd", makeSsd},
                                           DeviceCase{"Zns", makeZns}));
