/**
 * @file
 * Whole-stack determinism and seed-stability properties. Every
 * experiment must be bit-for-bit reproducible for a given seed (the
 * event queue guarantees FIFO same-tick ordering), and results must
 * be *stable* — not wildly different — across seeds.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

workload::FioResult
runOnce(std::uint64_t seed, const workload::FioJobSpec &base)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.seed = seed;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(128));
    workload::FioJobSpec spec = base;
    spec.runTime = sim::milliseconds(100);
    return harness::runFio(bed.sim(), disk, spec);
}

} // namespace

TEST(Determinism, IdenticalSeedsIdenticalResults)
{
    workload::FioResult a = runOnce(1234, workload::fioRandR1());
    workload::FioResult b = runOnce(1234, workload::fioRandR1());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.iops, b.iops);
    EXPECT_EQ(a.latency.p50(), b.latency.p50());
    EXPECT_EQ(a.latency.p999(), b.latency.p999());
    EXPECT_EQ(a.latency.max(), b.latency.max());
}

TEST(Determinism, DifferentSeedsStableResults)
{
    workload::FioResult a = runOnce(1, workload::fioRandR1());
    workload::FioResult b = runOnce(999, workload::fioRandR1());
    // Jitter differs, but throughput and latency stay within a few
    // percent — the model is not seed-fragile.
    EXPECT_NEAR(a.iops, b.iops, a.iops * 0.03);
    EXPECT_NEAR(a.avgLatencyUs(), b.avgLatencyUs(),
                a.avgLatencyUs() * 0.03);
}

TEST(Determinism, EventCountsReproducible)
{
    auto run = [](std::uint64_t seed) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 2;
        cfg.seed = seed;
        harness::BmStoreTestbed bed(cfg);
        host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(256));
        workload::FioJobSpec spec = workload::fioRandW16();
        spec.runTime = sim::milliseconds(50);
        harness::runFio(bed.sim(), disk, spec);
        return bed.sim().queue().executedCount();
    };
    std::uint64_t events = run(42);
    EXPECT_EQ(events, run(42));
    // Golden anchor: two runs of one binary cannot notice a change
    // that moves the replay; this recorded count can. It assumes
    // libstdc++ (sim::Rng draws through std::uniform_int_distribution
    // and std::normal_distribution). It moves when a change folds an
    // event away or moves the replay (per-object RNG streams, ROADMAP
    // item 5(a)).
    EXPECT_EQ(events, 899345u);
}
