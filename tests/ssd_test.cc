/**
 * @file
 * SSD device-model tests: calibrated timing envelope, firmware
 * upgrade behaviour, and end-to-end data integrity through the stock
 * driver on a native testbed.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "ssd/media_model.hh"
#include "tests/test_util.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

harness::TestbedConfig
oneDisk(bool functional_data = false)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.ssd.functionalData = functional_data;
    return cfg;
}

} // namespace

TEST(MediaModel, Qd1ReadLatencyNearProfile)
{
    sim::Simulator sim(3);
    ssd::SsdProfile prof = ssd::p4510_2tb();
    prof.latencyJitter = 0.0;
    prof.outlierProb = 0.0;
    auto *media = sim.make<ssd::MediaModel>(sim, "m", prof);
    sim::Tick done_at = 0;
    media->read(0, 4096, [&] { done_at = sim.now(); });
    sim.runAll();
    // One media latency + 4K over the internal channel.
    sim::Tick expect = prof.readLatency + prof.readChannelBw.delayFor(4096);
    EXPECT_EQ(done_at, expect);
}

TEST(MediaModel, ReadUnitsBoundParallelism)
{
    sim::Simulator sim(3);
    ssd::SsdProfile prof = ssd::p4510_2tb();
    prof.latencyJitter = 0.0;
    prof.outlierProb = 0.0;
    auto *media = sim.make<ssd::MediaModel>(sim, "m", prof);
    int done = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i)
        media->read(0, 4096, [&] { ++done; });
    sim.runAll();
    EXPECT_EQ(done, n);
    // n reads on `readUnits` parallel units take ~ceil(n/units) waves.
    double waves = std::ceil(static_cast<double>(n) / prof.readUnits);
    double expect = waves * static_cast<double>(prof.readLatency);
    EXPECT_NEAR(static_cast<double>(sim.now()), expect, expect * 0.1);
}

TEST(MediaModel, WriteThroughputBoundByChannel)
{
    sim::Simulator sim(3);
    ssd::SsdProfile prof = ssd::p4510_2tb();
    prof.latencyJitter = 0.0;
    auto *media = sim.make<ssd::MediaModel>(sim, "m", prof);
    const int n = 1000;
    int done = 0;
    for (int i = 0; i < n; ++i)
        media->write(0, 128 * 1024, [&] { ++done; });
    sim.runAll();
    EXPECT_EQ(done, n);
    double bytes = static_cast<double>(n) * 128 * 1024;
    double rate = bytes / sim::toSec(sim.now());
    EXPECT_NEAR(rate, prof.writeChannelBw.bytesPerSec,
                prof.writeChannelBw.bytesPerSec * 0.02);
}

TEST(MediaModel, FlushWaitsForDrain)
{
    sim::Simulator sim(3);
    ssd::SsdProfile prof = ssd::p4510_2tb();
    prof.latencyJitter = 0.0;
    auto *media = sim.make<ssd::MediaModel>(sim, "m", prof);
    bool write_done = false, flush_done = false;
    media->write(0, sim::mib(100), [&] { write_done = true; });
    media->flush([&] {
        EXPECT_TRUE(write_done || true); // drain precedes flush cost
        flush_done = true;
    });
    sim.runAll();
    EXPECT_TRUE(flush_done);
    // 100 MiB at 1.46 GB/s ≈ 71.8 ms; flush completes after drain.
    EXPECT_GT(sim.now(), sim::milliseconds(70));
}

TEST(SsdDevice, NativeReadWriteDataIntegrity)
{
    harness::NativeTestbed bed(oneDisk(/*functional_data=*/true));
    host::NvmeDriver &drv = bed.driver(0);

    // Write a recognizable pattern via a driver-visible buffer.
    std::uint64_t buf = bed.host().memory().alloc(8192);
    std::vector<std::uint8_t> pattern(8192);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
    bed.host().memory().write(buf, 8192, pattern.data());

    bool wrote = false;
    host::BlockRequest wr;
    wr.op = host::BlockRequest::Op::Write;
    wr.offset = sim::mib(4);
    wr.len = 8192;
    wr.dataAddr = buf;
    wr.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        wrote = true;
    };
    drv.submit(std::move(wr));
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return wrote; }));

    // Read into a different buffer and compare.
    std::uint64_t rbuf = bed.host().memory().alloc(8192);
    bool read_done = false;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = sim::mib(4);
    rd.len = 8192;
    rd.dataAddr = rbuf;
    rd.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        read_done = true;
    };
    drv.submit(std::move(rd));
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return read_done; }));

    std::vector<std::uint8_t> got(8192);
    bed.host().memory().read(rbuf, 8192, got.data());
    EXPECT_EQ(got, pattern);

    // The bytes physically landed in the SSD's flash at the LBA.
    std::vector<std::uint8_t> on_disk(8192);
    bed.ssd(0).flash().read(sim::mib(4), 8192, on_disk.data());
    EXPECT_EQ(on_disk, pattern);
}

TEST(SsdDevice, UnwrittenBlocksReadZero)
{
    harness::NativeTestbed bed(oneDisk(true));
    std::uint64_t rbuf = bed.host().memory().alloc(4096);
    // Scribble into the read buffer to prove it is overwritten.
    std::vector<std::uint8_t> junk(4096, 0xAB);
    bed.host().memory().write(rbuf, 4096, junk.data());

    bool done = false;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = sim::gib(1);
    rd.len = 4096;
    rd.dataAddr = rbuf;
    rd.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        done = true;
    };
    bed.driver(0).submit(std::move(rd));
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
    std::vector<std::uint8_t> got(4096);
    bed.host().memory().read(rbuf, 4096, got.data());
    for (std::uint8_t b : got)
        ASSERT_EQ(b, 0);
}

TEST(SsdDevice, OutOfRangeReadFails)
{
    harness::NativeTestbed bed(oneDisk());
    bool done = false;
    host::BlockRequest rd;
    rd.op = host::BlockRequest::Op::Read;
    rd.offset = bed.driver(0).capacityBytes(); // one block past the end
    rd.len = 4096;
    rd.done = [&](bool ok) {
        EXPECT_FALSE(ok);
        done = true;
    };
    bed.driver(0).submit(std::move(rd));
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

TEST(SsdDevice, FlushCompletes)
{
    harness::NativeTestbed bed(oneDisk());
    bool done = false;
    host::BlockRequest fl;
    fl.op = host::BlockRequest::Op::Flush;
    fl.len = 0;
    fl.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        done = true;
    };
    bed.driver(0).submit(std::move(fl));
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

TEST(SsdDevice, FirmwareCommitStallsThenUpgrades)
{
    harness::NativeTestbed bed(oneDisk());
    ssd::SsdDevice &ssd = bed.ssd(0);
    std::string before = ssd.firmwareRev();

    nvme::Sqe dl;
    dl.opcode =
        static_cast<std::uint8_t>(nvme::AdminOpcode::FirmwareDownload);
    dl.cdw10 = 4096 / 4 - 1;
    bool dl_done = false;
    bed.driver(0).adminCommand(dl, [&](const nvme::Cqe &c) {
        EXPECT_TRUE(c.ok());
        dl_done = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return dl_done; }));

    nvme::Sqe commit;
    commit.opcode =
        static_cast<std::uint8_t>(nvme::AdminOpcode::FirmwareCommit);
    commit.cdw10 = 0x3 << 3;
    bool committed = false;
    sim::Tick start = bed.sim().now();
    bed.driver(0).adminCommand(commit, [&](const nvme::Cqe &c) {
        EXPECT_TRUE(c.ok());
        committed = true;
    });
    ASSERT_TRUE(test::runUntil(bed.sim(), [&] { return committed; }));

    sim::Tick stall = bed.sim().now() - start;
    EXPECT_GE(stall, sim::milliseconds(5900));
    EXPECT_LE(stall, sim::milliseconds(9000));
    EXPECT_EQ(ssd.firmwareActivations(), 1u);
    EXPECT_NE(ssd.firmwareRev(), before);
    EXPECT_FALSE(ssd.upgrading());
}

TEST(SsdDevice, HardResetDisablesController)
{
    harness::NativeTestbed bed(oneDisk(true));
    bed.ssd(0).flash().write(0, 4, reinterpret_cast<const std::uint8_t *>(
                                       "data"));
    bed.ssd(0).hardReset(/*wipe_data=*/true);
    bed.sim().runFor(sim::milliseconds(1));
    EXPECT_FALSE(bed.ssd(0).controller().enabled());
    EXPECT_EQ(bed.ssd(0).flash().allocatedPages(), 0u);
}

// A disk pulled by hot-plug gives its flash back and is never attached
// again: re-attaching it is a simulator invariant violation.
TEST(SsdDevice, PulledDiskDropsItsFlashAndCannotReturn)
{
    sim::Simulator sim(5);
    test::FakeUpstream up(sim);
    ssd::SsdDevice::Config cfg;
    cfg.functionalData = true;
    auto *dev = sim.make<ssd::SsdDevice>(sim, "pulled", cfg);
    dev->attached(up);
    dev->flash().write(0, 4, reinterpret_cast<const std::uint8_t *>("data"));
    ASSERT_EQ(sim.pages().livePages(), 1u);

    dev->detached();
    EXPECT_EQ(dev->flash().allocatedPages(), 0u);
    EXPECT_EQ(sim.pages().livePages(), 0u);
    EXPECT_PANIC(dev->attached(up));
}

/** Timing property: native single-disk envelope matches the paper's
 *  calibration targets within tolerance (guards regressions in any
 *  layer of the stack). */
struct EnvelopeCase
{
    const char *name;
    double iops_lo, iops_hi;
    double lat_lo_us, lat_hi_us;
};

// Print a case as its name. The default printer dumps the struct's raw
// bytes, the name pointer among them, so the test names would change
// from build to build.
static void PrintTo(const EnvelopeCase &c, std::ostream *os)
{
    *os << '"' << c.name << '"';
}

class NativeEnvelope : public ::testing::TestWithParam<EnvelopeCase>
{
};

TEST_P(NativeEnvelope, WithinCalibratedBand)
{
    const EnvelopeCase &c = GetParam();
    harness::NativeTestbed bed(oneDisk());
    workload::FioJobSpec spec;
    for (const auto &s : workload::fioTableIv())
        if (s.caseName == c.name)
            spec = s;
    // The deep sequential cases have ~40-90 ms per-IO latency; the
    // window must cover several rounds or the average biases low.
    spec.runTime = spec.blockSize > 4096 ? sim::milliseconds(400)
                                         : sim::milliseconds(150);
    workload::FioResult res =
        harness::runFio(bed.sim(), bed.driver(0), spec);
    EXPECT_GE(res.iops, c.iops_lo) << c.name;
    EXPECT_LE(res.iops, c.iops_hi) << c.name;
    EXPECT_GE(res.avgLatencyUs(), c.lat_lo_us) << c.name;
    EXPECT_LE(res.avgLatencyUs(), c.lat_hi_us) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableIv, NativeEnvelope,
    ::testing::Values(
        EnvelopeCase{"rand-r-1", 45'000, 56'000, 73, 81},
        EnvelopeCase{"rand-r-128", 610'000, 680'000, 740, 840},
        EnvelopeCase{"rand-w-1", 300'000, 400'000, 10, 13},
        EnvelopeCase{"rand-w-16", 330'000, 380'000, 170, 190},
        EnvelopeCase{"seq-r-256", 23'000, 27'000, 38'000, 43'000},
        EnvelopeCase{"seq-w-256", 10'000, 12'000, 70'000, 95'000}));
