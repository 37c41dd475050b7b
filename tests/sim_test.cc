/**
 * @file
 * Unit tests of the simulation kernel. The event queue has one
 * contract, run order by (tick, schedule order), checked on small
 * cases and on a large random schedule; then time limits, RNG
 * determinism, histogram quantiles and sparse memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
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

// The order contract on a large random schedule: thousands of events
// with many same-tick collisions, more scheduled from callbacks at the
// current tick or later, run through runUntil slices. They execute in
// (tick, schedule order), each at its tick and none past its slice.
namespace {

/**
 * Schedule @p initial events on random ticks in [0, @p ticks); each
 * event may schedule a child at its own tick or up to 40 ticks later,
 * until @p cap events exist. Drain in random runUntil() steps and
 * check that every event ran at its tick, in (tick, schedule order).
 * @return the number of events that shared a tick with an earlier one.
 */
std::size_t
checkTickThenScheduleOrder(std::uint64_t seed, int initial, Tick ticks,
                           std::size_t cap)
{
    EventQueue q;
    Rng rng(seed);
    std::vector<Tick> when_of; // indexed by schedule order
    std::vector<std::size_t> ran;
    std::size_t now_children = 0, later_children = 0;
    Tick limit = 0;
    std::function<void(Tick)> add = [&](Tick when) {
        std::size_t i = when_of.size();
        when_of.push_back(when);
        q.schedule(when, [&, i] {
            q.checkInvariants();
            EXPECT_EQ(q.now(), when_of[i]);
            EXPECT_LE(q.now(), limit);
            ran.push_back(i);
            if (when_of.size() >= cap || !rng.chance(0.3))
                return;
            if (rng.chance(0.5)) {
                ++now_children;
                add(q.now());
            } else {
                ++later_children;
                add(q.now() + rng.uniformInt(1, 40));
            }
        });
    };
    for (int i = 0; i < initial; ++i)
        add(rng.uniformInt(0, ticks - 1));
    EXPECT_EQ(q.size(), static_cast<std::size_t>(initial));
    while (!q.empty()) {
        limit = q.now() + rng.uniformInt(0, 50);
        q.runUntil(limit);
        EXPECT_EQ(q.now(), limit);
    }
    q.checkInvariants();

    std::vector<std::size_t> expected(when_of.size());
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(),
                     [&when_of](std::size_t a, std::size_t b) {
                         return when_of[a] < when_of[b];
                     });
    EXPECT_EQ(ran, expected);
    EXPECT_EQ(q.executedCount(), when_of.size());
    EXPECT_GT(now_children, 500u);
    EXPECT_GT(later_children, 500u);
    std::set<Tick> distinct(when_of.begin(), when_of.end());
    return when_of.size() - distinct.size();
}

} // namespace

TEST(EventQueue, RandomScheduleRunsInTickThenScheduleOrder)
{
    EXPECT_GT(checkTickThenScheduleOrder(29, 5000, 1000, 20'000),
              3000u); // same-tick events
}

// 100,000 events pending at once, five per tick on average, fill the
// heap nine levels deep, so every depth a sift can start or stop at
// is walked, on same-tick keys that only the schedule order tells
// apart.
TEST(EventQueue, HundredThousandPendingKeepTickThenScheduleOrder)
{
    EXPECT_GT(checkTickThenScheduleOrder(31, 100'000, 20'000, 130'000),
              100'000u);
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

// A log line formats its parts like a panic report: a function id
// (one byte) prints as a number, where a raw byte 0 would be a NUL
// that cuts the line short.
TEST(Log, OneByteIdsPrintAsNumbers)
{
    LogLevel before = Log::level();
    Log::setLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    std::uint8_t fn = 0;
    logAt(LogLevel::Info, 0, "ctrl.migration", "migration #3: fn=", fn,
          " nsid=", 1u, " slot=", std::uint8_t(7), " ok=", true);
    std::string line = testing::internal::GetCapturedStderr();
    Log::setLevel(before);
    EXPECT_NE(line.find("ctrl.migration: migration #3: fn=0 nsid=1 "
                        "slot=7 ok=true\n"),
              std::string::npos)
        << line;
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

/** A unit whose 32 bytes are all @p byte. */
PageStore::Unit
byteUnit(std::uint8_t byte)
{
    std::uint64_t w = 0x0101010101010101ULL * byte;
    return {w, w, w, w};
}

/** A unit with 32 distinct bytes, so an offset slip shows. */
const PageStore::Unit kRamp = {0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL,
                               0x1716151413121110ULL, 0x1f1e1d1c1b1a1918ULL};

/** The 4 KiB of a page repeating @p unit, built by hand. */
std::vector<std::uint8_t>
expanded(const PageStore::Unit &unit)
{
    std::vector<std::uint8_t> out(SparseMemory::kPageBytes);
    for (std::size_t i = 0; i < out.size(); i += sizeof(unit))
        std::memcpy(out.data() + i, unit.data(), sizeof(unit));
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
    // A unit fill maps a fresh unit page: the shared frame is neither
    // copied nor written, and no frame is carved.
    b.fillUnit(0, byteUnit(0x22));
    EXPECT_EQ(b.unit(0), byteUnit(0x22));
    EXPECT_FALSE(a.unit(0)); // a still maps its frame
    EXPECT_EQ(store.livePages(), 2u);
    EXPECT_EQ(store.liveFrames(), 1u);
    EXPECT_EQ(pageAt(a, 0), old);
    EXPECT_EQ(pageAt(b, 0), filled(0x22));

    // A whole-page byte write behaves the same: a's page stays.
    b.write(0, old.size(), DataIn(a, 0));
    auto next = filled(0x33);
    b.write(0, next.size(), next.data());
    EXPECT_EQ(pageAt(a, 0), old);
    EXPECT_EQ(pageAt(b, 0), next);
}

TEST(SparseMemory, PartialWriteIntoUnitPageCarvesFrame)
{
    PageStore store;
    SparseMemory m(store);
    m.fillUnit(0x2000, kRamp);
    ASSERT_EQ(store.liveFrames(), 0u);

    const std::uint8_t patch[8] = {0xa0, 0xa1, 0xa2, 0xa3,
                                   0xa4, 0xa5, 0xa6, 0xa7};
    m.write(0x2000 + 100, sizeof(patch), patch);
    // The unit was expanded into a frame, then patched.
    EXPECT_FALSE(m.unit(0x2000));
    EXPECT_EQ(store.liveFrames(), 1u);
    EXPECT_EQ(store.livePages(), 1u);
    auto want = expanded(kRamp);
    std::copy(patch, patch + sizeof(patch), want.begin() + 100);
    EXPECT_EQ(pageAt(m, 0x2000), want);
}

TEST(SparseMemory, PartialWriteToSharedUnitPageLeavesOtherHolder)
{
    PageStore store;
    SparseMemory a(store), b(store);
    a.fillUnit(0, kRamp);
    b.write(0x8000, SparseMemory::kPageBytes, DataIn(a, 0));
    ASSERT_EQ(store.livePages(), 1u);

    const std::uint8_t patch[4] = {9, 9, 9, 9};
    b.write(0x8000 + 4000, sizeof(patch), patch);
    EXPECT_EQ(a.unit(0), kRamp);
    EXPECT_EQ(pageAt(a, 0), expanded(kRamp));
    EXPECT_FALSE(b.unit(0x8000));
    EXPECT_EQ(store.livePages(), 2u);
}

TEST(SparseMemory, WholePageTransferKeepsUnitPage)
{
    PageStore store;
    SparseMemory a(store), b(store), c(store);
    a.fillUnit(0x1000, kRamp);
    a.fillUnit(0x2000, byteUnit(0x5c));
    // A write from memory and a read into memory both move by
    // reference, at any page-aligned distance.
    b.write(0x40000, 2 * SparseMemory::kPageBytes, DataIn(a, 0x1000));
    b.read(0x40000, 2 * SparseMemory::kPageBytes, DataOut(c, 0x7000));
    EXPECT_EQ(c.unit(0x7000), kRamp);
    EXPECT_EQ(c.unit(0x8000), byteUnit(0x5c));
    EXPECT_EQ(store.livePages(), 2u);
    EXPECT_EQ(store.liveFrames(), 0u);
}

TEST(SparseMemory, ReadExpandsUnitPage)
{
    PageStore store;
    SparseMemory m(store);
    m.fillUnit(0, kRamp);
    m.fillUnit(SparseMemory::kPageBytes, byteUnit(0x3d));
    // From an offset inside a group, across the page boundary.
    std::vector<std::uint8_t> out(SparseMemory::kPageBytes);
    m.read(13, out.size(), out.data());
    std::vector<std::uint8_t> want = expanded(kRamp);
    want.erase(want.begin(), want.begin() + 13);
    want.insert(want.end(), 13, 0x3d);
    EXPECT_EQ(out, want);
    EXPECT_EQ(store.liveFrames(), 0u);
}

TEST(SparseMemory, ClearRangeZeroesPartOfUnitPage)
{
    PageStore store;
    SparseMemory m(store);
    m.fillUnit(0, kRamp);
    m.clearRange(100, 200);
    auto want = expanded(kRamp);
    std::fill(want.begin() + 100, want.begin() + 300, 0);
    EXPECT_EQ(pageAt(m, 0), want);
    EXPECT_EQ(m.allocatedPages(), 1u);
}

TEST(PageStore, PeakCountsPagesOfBothKinds)
{
    PageStore store;
    PageStore::Id frame = store.alloc();
    PageStore::Id unit = store.allocUnit(kRamp);
    store.release(frame);
    store.release(unit);
    // Reuse hands out freed pages: the peak stays at two.
    store.release(store.allocUnit(kRamp));
    store.release(store.alloc());
    EXPECT_EQ(store.livePages(), 0u);
    EXPECT_EQ(store.peakPages(), 2u);
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

// A staging memory is cleared after every transfer and refilled at the
// same addresses: no page stays referenced, and the next fill counts
// again.
TEST(SparseMemory, RefillAfterClearReturnsEveryPage)
{
    PageStore store;
    SparseMemory src(store), staged(store);
    auto data = filled(0x42);
    src.write(0, data.size(), data.data());
    for (int round = 0; round < 3; ++round) {
        staged.write(0, 2 * SparseMemory::kPageBytes, DataIn(src, 0));
        staged.write(0x10000 + 7, 9, data.data());
        EXPECT_EQ(staged.allocatedPages(), 2u);
        EXPECT_EQ(store.livePages(), 2u); // page 0 is shared with src
        staged.clear();
        EXPECT_EQ(staged.allocatedPages(), 0u);
        EXPECT_EQ(store.livePages(), 1u);
        EXPECT_EQ(pageAt(staged, 0), filled(0));
        EXPECT_EQ(pageAt(staged, 0x10000), filled(0));
    }
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

TEST(PageStoreDeathTest, LeakedUnitPagePanicsAtTeardown)
{
    EXPECT_DEATH(
        {
            PageStore store;
            store.allocUnit(kRamp);
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

namespace {

/** A component with one counter, registered as a stat. */
class CountingObject : public SimObject
{
  public:
    explicit CountingObject(Simulator &sim) : SimObject(sim, "disk0")
    {
        registerStat("reads", [this] { return double(reads); });
    }

    std::uint64_t reads = 0;
};

} // namespace

TEST(StatsRegistry, ComponentsSelfRegister)
{
    Simulator sim(1);
    EXPECT_EQ(sim.stats().size(), 0u);
    // Registered stats appear under "<component>.<stat>" and follow
    // the live counters.
    CountingObject *obj = sim.make<CountingObject>(sim);
    EXPECT_EQ(sim.stats().size(), 1u);
    EXPECT_TRUE(sim.stats().has("disk0.reads"));
    EXPECT_DOUBLE_EQ(sim.stats().value("disk0.reads"), 0.0);
    obj->reads = 7;
    EXPECT_DOUBLE_EQ(sim.stats().value("disk0.reads"), 7.0);
}
