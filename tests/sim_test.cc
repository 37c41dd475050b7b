/**
 * @file
 * Unit tests of the discrete-event kernel: event ordering,
 * cancellation, time limits, RNG determinism, histogram quantiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "tests/test_util.hh"

using namespace bms::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

// Same-tick events run in scheduling order, so the execution order is
// the schedule stably sorted by tick.
TEST(EventQueue, SameTickIsFifo)
{
    std::vector<Tick> one_tick(10, 5);
    // Colliding ticks on purpose: (when, seq) breaks the ties.
    std::vector<Tick> colliding;
    for (int i = 0; i < 64; ++i)
        colliding.push_back(10 * static_cast<Tick>((i * 7) % 5));
    for (const std::vector<Tick> &ticks : {one_tick, colliding}) {
        EventQueue q;
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < ticks.size(); ++i)
            q.schedule(ticks[i], [&order, i] { order.push_back(i); });
        q.runAll();
        std::vector<std::size_t> expected(ticks.size());
        std::iota(expected.begin(), expected.end(), 0);
        std::stable_sort(expected.begin(), expected.end(),
                         [&ticks](std::size_t a, std::size_t b) {
                             return ticks[a] < ticks[b];
                         });
        EXPECT_EQ(order, expected);
    }
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    q.cancel(id);
    q.runAll();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdIsNoop)
{
    EventQueue q;
    q.cancel(kInvalidEventId);
    q.cancel(12345);
    EXPECT_TRUE(q.empty());
    q.checkInvariants();
}

TEST(EventQueue, CancelOfExecutedIdDoesNotCorruptBookkeeping)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    ASSERT_TRUE(q.runOne()); // a has executed
    // Cancelling an already-executed id must not decrement the live
    // count or park the id in the lazily-deleted set forever.
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.checkInvariants();
    q.runAll();
    EXPECT_TRUE(q.empty());
    q.checkInvariants();
}

// A slot is recycled as soon as its event runs, so a stale id names a
// slot that a newer event may own. The generation half of the id must
// keep cancel() of the stale id away from the new owner.
TEST(EventQueue, StaleIdDoesNotCancelSlotReuser)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    ASSERT_TRUE(q.runOne());
    bool b_ran = false;
    EventId b = q.schedule(20, [&] { b_ran = true; });
    // b reuses a's slot (the low 32 bits) under a newer generation.
    ASSERT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
    ASSERT_NE(a, b);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.checkInvariants();
    q.runAll();
    EXPECT_TRUE(b_ran);
    q.checkInvariants();
}

TEST(EventQueue, CancelledIdsArePurgedWhenTheirTickPops)
{
    EventQueue q;
    std::vector<EventId> ids;
    ids.reserve(100);
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(10 + i, [] {}));
    for (EventId id : ids)
        q.cancel(id);
    EXPECT_EQ(q.size(), 0u);
    // Double-cancel is a no-op, not a second decrement.
    q.cancel(ids.front());
    q.checkInvariants();
    q.runUntil(1000); // pops (and purges) every cancelled entry
    EXPECT_TRUE(q.empty());
    q.checkInvariants();
    EXPECT_EQ(q.executedCount(), 0u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runAll();
    EXPECT_EQ(q.now(), 10u);
    EXPECT_PANIC(q.schedule(5, [] {}));
    EXPECT_PANIC(q.schedule(10, EventQueue::Callback{}));
}

TEST(Check, PanicReportCarriesContext)
{
    EventQueue q;
    q.schedule(42, [] {});
    q.runAll(); // advance the innermost clock to tick 42
    std::string report;
    try {
        bms::sim::ScopedPanicMode guard(PanicMode::Throw);
        std::string who = "engine0.qos";
        bms::sim::ScopedCheckComponent comp(who);
        BMS_ASSERT_EQ(2 + 2, 5, "arithmetic drifted");
    } catch (const SimPanic &p) {
        report = p.what();
    }
    EXPECT_NE(report.find("2 + 2 == 5"), std::string::npos) << report;
    EXPECT_NE(report.find("lhs=4 rhs=5"), std::string::npos) << report;
    EXPECT_NE(report.find("arithmetic drifted"), std::string::npos);
    EXPECT_NE(report.find("tick: 42 ns"), std::string::npos) << report;
    EXPECT_NE(report.find("engine0.qos"), std::string::npos) << report;
    EXPECT_NE(report.find("sim_test.cc"), std::string::npos) << report;
}

TEST(Check, MacrosPassOnSatisfiedConditions)
{
    BMS_ASSERT(true);
    BMS_ASSERT(1 < 2, "with context ", 42);
    BMS_ASSERT_EQ(7, 7);
    BMS_ASSERT_NE(7, 8);
    BMS_ASSERT_LE(7, 7);
    BMS_ASSERT_LT(7, 8);
    EXPECT_PANIC(BMS_PANIC("unreachable state ", 3));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    q.runAll();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, CancelledHeadDoesNotLeakLaterEvents)
{
    EventQueue q;
    bool late_ran = false;
    EventId early = q.schedule(10, [] {});
    q.schedule(100, [&] { late_ran = true; });
    q.cancel(early);
    q.runUntil(50);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            q.scheduleAfter(10, recurse);
    };
    q.schedule(0, recurse);
    q.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(Simulator, OwnsObjectsAndTime)
{
    Simulator sim(42);
    EXPECT_EQ(sim.now(), 0u);
    sim.scheduleAfter(milliseconds(1), [] {});
    sim.runFor(milliseconds(2));
    EXPECT_EQ(sim.now(), milliseconds(2));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1'000'000), b.uniformInt(0, 1'000'000));
}

TEST(Rng, UniformIntBounds)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, ExponentialMeanRoughlyCorrect)
{
    Rng r(11);
    double sum = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Zipfian, HotItemsDominate)
{
    Rng r(5);
    ZipfianGenerator z(1000, 0.99);
    std::vector<int> counts(1000, 0);
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++counts[z.next(r)];
    // Item 0 should be by far the most popular.
    EXPECT_GT(counts[0], counts[500] * 10);
    // And all samples must be in range (implicitly checked by index).
    int total = 0;
    for (int c : counts)
        total += c;
    EXPECT_EQ(total, n);
}

TEST(Zipfian, SingleItem)
{
    Rng r(5);
    ZipfianGenerator z(1, 0.99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z.next(r), 0u);
}

TEST(LatencyHistogram, ExactForSmallValues)
{
    LatencyHistogram h;
    for (Tick v = 0; v < 32; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_NEAR(h.mean(), 15.5, 0.01);
}

TEST(LatencyHistogram, QuantilesWithinRelativeError)
{
    LatencyHistogram h;
    // Uniform 1..100000 ns.
    for (Tick v = 1; v <= 100'000; ++v)
        h.add(v);
    EXPECT_NEAR(static_cast<double>(h.p50()), 50'000.0, 50'000.0 * 0.04);
    EXPECT_NEAR(static_cast<double>(h.p99()), 99'000.0, 99'000.0 * 0.04);
    EXPECT_NEAR(static_cast<double>(h.quantile(0.999)), 99'900.0,
                99'900.0 * 0.04);
}

TEST(LatencyHistogram, MergeMatchesCombined)
{
    LatencyHistogram a, b, all;
    for (Tick v = 0; v < 1000; ++v) {
        if (v % 2) {
            a.add(v * 100);
        } else {
            b.add(v * 100);
        }
        all.add(v * 100);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.p50(), all.p50());
    EXPECT_EQ(a.max(), all.max());
}

TEST(LatencyHistogram, EmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.p99(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(SampleStats, Moments)
{
    SampleStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_NEAR(s.mean(), 5.0, 1e-9);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
}

TEST(SparseMemory, ReadBackWritten)
{
    PageStore store;
    SparseMemory m(store);
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    m.write(4090, 100, data); // crosses a page boundary
    std::uint8_t out[100] = {};
    m.read(4090, 100, out);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST(SparseMemory, UnwrittenReadsZero)
{
    PageStore store;
    SparseMemory m(store);
    std::uint8_t out[16];
    m.read(123456789, 16, out);
    for (std::uint8_t b : out)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(m.allocatedPages(), 0u);
}

namespace {

/** A page of @p byte. */
std::vector<std::uint8_t>
filled(std::uint8_t byte)
{
    return std::vector<std::uint8_t>(SparseMemory::kPageBytes, byte);
}

std::vector<std::uint8_t>
pageAt(const SparseMemory &m, std::uint64_t addr)
{
    std::vector<std::uint8_t> out(SparseMemory::kPageBytes);
    m.read(addr, out.size(), out.data());
    return out;
}

} // namespace

TEST(SparseMemory, PartialWriteToSharedPageLeavesOtherHolder)
{
    PageStore store;
    SparseMemory a(store), b(store);
    auto old = filled(0x5a);
    a.write(0, old.size(), old.data());
    b.write(0x8000, old.size(), DataIn(a, 0)); // by reference
    EXPECT_EQ(store.livePages(), 1u);

    const std::uint8_t patch[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    b.write(0x8000 + 100, sizeof(patch), patch);
    // b copied the page before writing; a still sees every old byte.
    EXPECT_EQ(store.livePages(), 2u);
    EXPECT_EQ(pageAt(a, 0), old);
    auto want = old;
    std::copy(patch, patch + sizeof(patch), want.begin() + 100);
    EXPECT_EQ(pageAt(b, 0x8000), want);
}

TEST(SparseMemory, WholePageWriteTakesFreshPageWithoutCopying)
{
    PageStore store;
    SparseMemory a(store), b(store);
    auto old = filled(0x11);
    a.write(0, old.size(), old.data());
    b.write(0, old.size(), DataIn(a, 0));
    {
        // Leave a freed page of 0xEE on the free list: the next fresh
        // page reuses it.
        SparseMemory gone(store);
        auto junk = filled(0xEE);
        gone.write(0, junk.size(), junk.data());
    }
    std::uint8_t *fresh = b.fillPage(0);
    EXPECT_NE(fresh, a.page(0));
    EXPECT_EQ(fresh[0], 0xEE); // the shared page was not copied in
    EXPECT_EQ(store.livePages(), 2u);
    std::fill(fresh, fresh + SparseMemory::kPageBytes, 0x22);
    EXPECT_EQ(pageAt(a, 0), old);
    EXPECT_EQ(pageAt(b, 0), filled(0x22));

    // A whole-page byte write behaves the same: a's page stays.
    b.write(0, old.size(), DataIn(a, 0));
    auto next = filled(0x33);
    b.write(0, next.size(), next.data());
    EXPECT_EQ(pageAt(a, 0), old);
    EXPECT_EQ(pageAt(b, 0), next);
}

TEST(SparseMemory, MovingAbsentPageInstallsNothing)
{
    PageStore store;
    SparseMemory src(store), dst(store);
    auto data = filled(0x77);
    dst.write(0x1000, data.size(), data.data());
    ASSERT_EQ(store.livePages(), 1u);

    // Three pages nobody wrote move over a present page and two
    // absent ones: the present page is dropped, nothing is installed.
    dst.write(0, 3 * SparseMemory::kPageBytes, DataIn(src, 0x40000));
    EXPECT_EQ(dst.allocatedPages(), 0u);
    EXPECT_EQ(store.livePages(), 0u);
    EXPECT_EQ(pageAt(dst, 0x1000), filled(0));
}

TEST(SparseMemory, ClearAndDestructionReturnEveryPage)
{
    PageStore store;
    {
        SparseMemory a(store), b(store);
        auto data = filled(0x42);
        for (std::uint64_t p = 0; p < 8; ++p)
            a.write(p * SparseMemory::kPageBytes, data.size(), data.data());
        b.write(0, 4 * SparseMemory::kPageBytes, DataIn(a, 0));
        EXPECT_EQ(store.livePages(), 8u);

        // Whole pages go; a partial edge page is zero-filled instead.
        a.clearRange(0, 2 * SparseMemory::kPageBytes + 100);
        EXPECT_EQ(a.allocatedPages(), 6u);
        EXPECT_EQ(pageAt(a, 0), filled(0));
        auto edge = data;
        std::fill(edge.begin(), edge.begin() + 100, 0);
        EXPECT_EQ(pageAt(a, 2 * SparseMemory::kPageBytes), edge);
        EXPECT_EQ(pageAt(b, 0), data); // b's references are its own

        a.clear();
        EXPECT_EQ(a.allocatedPages(), 0u);
        EXPECT_EQ(store.livePages(), 4u);
        b.write(0x100000, data.size(), data.data());
        EXPECT_EQ(store.livePages(), 5u);
    }
    EXPECT_EQ(store.livePages(), 0u);
}

// Slab pages are invisible to LeakSanitizer, so the store counts its
// own: a reference still held when it dies is a leak, and it panics.
TEST(PageStoreDeathTest, LeakedPagePanicsAtTeardown)
{
    EXPECT_DEATH(
        {
            PageStore store;
            store.alloc();
        },
        "pages still referenced");
}

TEST(TimeSeries, BucketsByTime)
{
    TimeSeries ts(milliseconds(10));
    ts.record(milliseconds(5));
    ts.record(milliseconds(5));
    ts.record(milliseconds(25));
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.counts()[0], 2u);
    EXPECT_EQ(ts.counts()[1], 0u);
    EXPECT_EQ(ts.counts()[2], 1u);
    EXPECT_NEAR(ts.rateAt(0), 200.0, 1e-9);
}

TEST(Bandwidth, DelayForBytes)
{
    Bandwidth bw = Bandwidth::gbPerSec(1.0);
    EXPECT_EQ(bw.delayFor(1'000'000), 1'000'000u); // 1 MB at 1 GB/s = 1 ms
    EXPECT_EQ(Bandwidth{}.delayFor(4096), 0u);
}

TEST(StatsRegistry, RegisterDumpVisit)
{
    StatsRegistry reg;
    int counter = 7;
    reg.add("a.ops", [&counter] { return static_cast<double>(counter); });
    reg.add("b.rate", [] { return 2.5; });
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.has("a.ops"));
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_DOUBLE_EQ(reg.value("a.ops"), 7.0);
    counter = 9;
    EXPECT_DOUBLE_EQ(reg.value("a.ops"), 9.0); // live, not a snapshot

    std::vector<std::string> names;
    reg.visit([&](const std::string &n, double) { names.push_back(n); });
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.ops"); // sorted
    EXPECT_EQ(names[1], "b.rate");
}

TEST(StatsRegistry, ComponentsSelfRegister)
{
    Simulator sim(1);
    // Registered stats appear under "<component>.<stat>" and follow
    // the live counters.
    EXPECT_EQ(sim.stats().size(), 0u);
}
