/**
 * @file
 * Kernel NVMe driver model tests: bring-up, capacity discovery,
 * queue management under pressure, CPU accounting, OffsetBlockDevice.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "tests/test_util.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

harness::TestbedConfig
oneDisk()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    return cfg;
}

} // namespace

TEST(Driver, InitDiscoversCapacity)
{
    harness::NativeTestbed bed(oneDisk());
    EXPECT_TRUE(bed.driver(0).ready());
    EXPECT_EQ(bed.driver(0).capacityBytes(),
              2000ull * 1000 * 1000 * 1000 / nvme::kBlockSize *
                  nvme::kBlockSize);
}

TEST(Driver, ManyOutstandingRequestsComplete)
{
    harness::NativeTestbed bed(oneDisk());
    int done = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        host::BlockRequest req;
        req.op = host::BlockRequest::Op::Read;
        req.offset = static_cast<std::uint64_t>(i) * 4096;
        req.len = 4096;
        req.queueHint = i;
        req.done = [&](bool ok) {
            EXPECT_TRUE(ok);
            ++done;
        };
        bed.driver(0).submit(std::move(req));
    }
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done == n; }));
    EXPECT_GT(bed.driver(0).interruptCount(), 0u);
}

TEST(Driver, QueueOverflowWaitsAndDrains)
{
    // Tiny queues force the wait-queue path.
    harness::TestbedConfig cfg = oneDisk();
    cfg.ioQueues = 1;
    cfg.queueDepth = 8;
    harness::NativeTestbed bed(cfg);
    int done = 0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        host::BlockRequest req;
        req.op = host::BlockRequest::Op::Read;
        req.offset = 0;
        req.len = 4096;
        req.done = [&](bool) { ++done; };
        bed.driver(0).submit(std::move(req));
    }
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done == n; }));
}

TEST(Driver, CpuOccupancyAccumulates)
{
    harness::NativeTestbed bed(oneDisk());
    workload::FioJobSpec spec = workload::fioRandR128();
    spec.runTime = sim::milliseconds(100);
    harness::runFio(bed.sim(), bed.driver(0), spec);
    // Driver work burned host CPU time.
    EXPECT_GT(bed.host().cpus().totalUtilization(bed.sim().now()), 0.01);
}

TEST(Driver, GuestProfileCapsIops)
{
    // A 4-vCPU guest with the CentOS 3.10 profile tops out near 312K
    // IOPS (the Fig. 9 in-VM ceiling), far below the device's 650K.
    harness::TestbedConfig cfg = oneDisk();
    cfg.attachHostDrivers = false;
    harness::NativeTestbed bed(cfg);
    auto vm = bed.addVfioVm(0);
    workload::FioJobSpec spec = workload::fioRandR128();
    spec.runTime = sim::milliseconds(150);
    workload::FioResult res =
        harness::runFio(bed.sim(), *vm.driver, spec);
    EXPECT_GT(res.iops, 280'000.0);
    EXPECT_LT(res.iops, 340'000.0);
}

TEST(Driver, AdminCommandPathWorks)
{
    harness::NativeTestbed bed(oneDisk());
    nvme::Sqe id;
    id.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::Identify);
    id.nsid = 1;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = bed.host().memory().alloc(4096);
    bool done = false;
    bed.driver(0).adminCommand(id, [&](const nvme::Cqe &cqe) {
        EXPECT_TRUE(cqe.ok());
        done = true;
    });
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done; }));
}

// The admin ring holds 31 commands; the rest wait for a CID instead of
// overwriting SQEs the controller has not fetched yet.
TEST(Driver, AdminQueueOverflowWaitsAndDrains)
{
    harness::NativeTestbed bed(oneDisk());
    int done = 0;
    const int n = 40;
    for (int i = 0; i < n; ++i) {
        nvme::Sqe gf;
        gf.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::GetFeatures);
        bed.driver(0).adminCommand(gf, [&](const nvme::Cqe &cqe) {
            EXPECT_TRUE(cqe.ok());
            ++done;
        });
    }
    EXPECT_TRUE(test::runUntil(bed.sim(), [&] { return done == n; }));
}

TEST(OffsetBlockDevice, TranslatesAndBounds)
{
    sim::Simulator sim(5);
    test::RecordingBlockDevice base(sim, sim::gib(8));
    host::OffsetBlockDevice view(base, sim::gib(2), sim::gib(1));
    EXPECT_EQ(view.capacityBytes(), sim::gib(1));

    bool ok_done = false;
    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Read;
    req.offset = sim::mib(10);
    req.len = 4096;
    req.done = [&](bool ok) {
        EXPECT_TRUE(ok);
        ok_done = true;
    };
    view.submit(std::move(req));
    sim.runAll();
    EXPECT_TRUE(ok_done);
    ASSERT_EQ(base.requests.size(), 1u);
    EXPECT_EQ(base.requests[0].offset, sim::gib(2) + sim::mib(10));

    bool rejected = false;
    host::BlockRequest bad;
    bad.op = host::BlockRequest::Op::Read;
    bad.offset = sim::gib(1); // past the window
    bad.len = 4096;
    bad.done = [&](bool ok) {
        EXPECT_FALSE(ok);
        rejected = true;
    };
    view.submit(std::move(bad));
    sim.runAll();
    EXPECT_TRUE(rejected);
    EXPECT_EQ(base.requests.size(), 1u); // never reached the base
}

TEST(Cpu, ReserveWithSlackOverlapsDeferredWork)
{
    host::CpuCore core;
    // 20 us of deferred completion work queued.
    core.reserve(0, sim::microseconds(20));
    // A submission with 25 us slack starts immediately...
    sim::Tick s1 = core.reserveWithSlack(0, sim::microseconds(1),
                                         sim::microseconds(25));
    EXPECT_EQ(s1, 0u);
    // ...but once the backlog exceeds the slack, it queues.
    core.reserve(0, sim::microseconds(40));
    sim::Tick s2 = core.reserveWithSlack(0, sim::microseconds(1),
                                         sim::microseconds(25));
    EXPECT_GT(s2, 0u);
}

TEST(Cpu, PickHonoursAffinityHint)
{
    host::CpuSet cpus(4);
    host::CpuCore &a = cpus.pick(1);
    host::CpuCore &b = cpus.pick(5); // 5 % 4 == 1
    EXPECT_EQ(&a, &b);
    host::CpuCore &c = cpus.pick(2);
    EXPECT_NE(&a, &c);
}
