/**
 * @file
 * Allocation gate: a fixed oracle workload makes at most
 * kMaxAllocsPerIo heap allocations per oracle I/O over a steady window.
 * A callback that captures more than `this` and a 32-bit handle, or a
 * shared counter per command, costs about one allocation per I/O more
 * and fails it.
 *
 * Its own executable: the counting operator new below replaces the
 * global one for this binary only. The simulation is single-threaded
 * and deterministic, so the count is exact for a given toolchain.
 */

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "harness/testbeds.hh"
#include "sim/check.hh"
#include "tests/test_util.hh"

namespace {

std::uint64_t g_allocs = 0;

} // namespace

// The replacements stay out of line: inlined into a caller, their
// malloc() or free() would be paired with the caller's operator delete
// or new, which the compiler reports as a mismatched deallocation.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace bms;

namespace {

/** Measured 1.082 (GCC 12, libstdc++); one allocation per I/O more
 *  fails. */
constexpr double kMaxAllocsPerIo = 1.09;

constexpr int kTenants = 4;
constexpr std::uint64_t kWindowBytes = sim::mib(64);

std::uint64_t
oracleIos(const std::vector<fuzz::OracleDevice *> &oracles)
{
    std::uint64_t n = 0;
    for (const fuzz::OracleDevice *o : oracles)
        n += o->reads() + o->writes() + o->flushes() + o->trims();
    return n;
}

} // namespace

TEST(Alloc, OracleIoStaysUnderTheBound)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 2;
    cfg.ssd.functionalData = true;
    harness::BmStoreTestbed bed(cfg);
    sim::Simulator &sim = bed.sim();
    fuzz::OpLog log(256);

    fuzz::TenantSpec spec;
    spec.iodepth = 8;
    spec.readRatio = 0.5;
    spec.flushProb = 0.01;
    spec.minIoBlocks = 1;
    spec.maxIoBlocks = 8;
    sim::Rng rng(1);
    std::vector<fuzz::OracleDevice *> oracles;
    std::vector<fuzz::TenantWorkload *> loads;
    for (int i = 0; i < kTenants; ++i) {
        host::NvmeDriver &drv = bed.attachTenant(
            static_cast<pcie::FunctionId>(i), kWindowBytes);
        fuzz::OracleDevice::Config ocfg;
        ocfg.uid = static_cast<std::uint32_t>(i + 1);
        ocfg.regionBytes = kWindowBytes;
        ocfg.maxIoBytes = spec.maxIoBlocks * nvme::kBlockSize;
        ocfg.seed = 1;
        std::string idx = std::to_string(i);
        oracles.push_back(sim.make<fuzz::OracleDevice>(
            sim, "alloc.oracle" + idx, drv, bed.host().memory(), log, ocfg));
        loads.push_back(sim.make<fuzz::TenantWorkload>(
            sim, "alloc.tenant" + idx, *oracles.back(), rng.fork(), spec));
    }

    // The paranoid sweeps every test binary turns on build scratch
    // containers; the window counts the data path alone.
    sim::Check::setParanoid(false);
    for (fuzz::TenantWorkload *l : loads)
        l->start();
    // Warm-up: records, rings and buffers reach their working size.
    sim.runFor(sim::milliseconds(5));
    const std::uint64_t ios0 = oracleIos(oracles);
    const std::uint64_t allocs0 = g_allocs;
    sim.runFor(sim::milliseconds(100));
    const std::uint64_t ios = oracleIos(oracles) - ios0;
    const std::uint64_t allocs = g_allocs - allocs0;
    sim::Check::setParanoid(true);

    ASSERT_GT(ios, 10000u);
    const double per_io = double(allocs) / double(ios);
    RecordProperty("allocsPerIo", std::to_string(per_io));
    EXPECT_LE(per_io, kMaxAllocsPerIo)
        << allocs << " allocations over " << ios << " oracle I/Os";

    int drained = 0;
    for (fuzz::TenantWorkload *l : loads)
        l->stop([&drained] { ++drained; });
    EXPECT_TRUE(test::runUntil(sim, [&] { return drained == kTenants; }));
    for (fuzz::TenantWorkload *l : loads)
        EXPECT_EQ(l->errors(), 0u);
}
