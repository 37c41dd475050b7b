/**
 * @file
 * Shared test utilities: a functional upstream fake for exercising
 * controllers without a full PCIe hierarchy, a raw-ring NVMe
 * initiator, a recording block device, and run-until helpers.
 */

#ifndef BMS_TESTS_TEST_UTIL_HH
#define BMS_TESTS_TEST_UTIL_HH

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "host/block.hh"
#include "nvme/queue_pair.hh"
#include "pcie/device.hh"
#include "sim/check.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"

/**
 * Assert that @p stmt violates a simulator invariant (BMS_ASSERT* /
 * BMS_PANIC). Forces PanicMode::Throw for the statement so the
 * violation surfaces as sim::SimPanic regardless of global mode.
 */
#define EXPECT_PANIC(stmt)                                                \
    do {                                                                  \
        ::bms::sim::ScopedPanicMode bmsPanicGuard_(                       \
            ::bms::sim::PanicMode::Throw);                                \
        EXPECT_THROW({ stmt; }, ::bms::sim::SimPanic);                    \
    } while (0)

namespace bms::test {

/**
 * Upstream fake: functional memory, one-tick DMA (readDelay and
 * writeDelay lengthen it), interrupt capture.
 * Lets controller-level tests run without links or a host model. Its
 * MemoryIf face gives tests untimed access to the same memory (e.g.
 * for nvme::buildPrp to place a PRP list).
 */
class FakeUpstream : public pcie::PcieUpstreamIf, public pcie::MemoryIf
{
  public:
    explicit FakeUpstream(sim::Simulator &sim)
        : memory(sim.pages()), _sim(sim)
    {}

    void
    read(std::uint64_t addr, std::uint32_t len, sim::DataOut out) override
    {
        memory.read(addr, len, out);
    }

    void
    write(std::uint64_t addr, std::uint32_t len, sim::DataIn data) override
    {
        memory.write(addr, len, data);
    }

    void
    release(std::uint64_t addr, std::uint64_t len) override
    {
        memory.clearRange(addr, len);
    }

    void
    dmaRead(std::uint64_t addr, std::uint32_t len, sim::DataOut out,
            std::function<void()> done) override
    {
        _sim.scheduleAfter(readDelay, [this, addr, len, out,
                                       done = std::move(done)] {
            if (out)
                memory.read(addr, len, out);
            done();
        });
    }

    void
    dmaWrite(std::uint64_t addr, std::uint32_t len, sim::DataIn data,
             std::function<void()> done) override
    {
        ++dmaWrites;
        _sim.scheduleAfter(writeDelay, [this, addr, len, data,
                                        done = std::move(done)] {
            if (data)
                memory.write(addr, len, data);
            done();
        });
    }

    void
    msix(pcie::FunctionId fn, std::uint16_t vector) override
    {
        interrupts.emplace_back(fn, vector);
        if (onInterrupt)
            onInterrupt(fn, vector);
    }

    sim::SparseMemory memory;
    /** Device → memory writes issued so far. */
    std::uint64_t dmaWrites = 0;
    /** Ticks a device's read of memory takes: the bytes are read
     *  when it lands. */
    sim::Tick readDelay = 1;
    /** Ticks a device → memory write takes to land. */
    sim::Tick writeDelay = 1;
    std::vector<std::pair<pcie::FunctionId, std::uint16_t>> interrupts;
    std::function<void(pcie::FunctionId, std::uint16_t)> onInterrupt;

  private:
    sim::Simulator &_sim;
};

/** Block device fake that records requests and completes after a
 *  fixed delay. */
class RecordingBlockDevice : public host::BlockDeviceIf
{
  public:
    RecordingBlockDevice(sim::Simulator &sim, std::uint64_t capacity,
                         sim::Tick latency = sim::microseconds(10))
        : _sim(sim), _capacity(capacity), _latency(latency)
    {}

    void
    submit(host::BlockRequest req) override
    {
        requests.push_back(req);
        auto done = std::move(req.done);
        _sim.scheduleAfter(_latency, [done = std::move(done)] {
            if (done)
                done(true);
        });
    }

    std::uint64_t capacityBytes() const override { return _capacity; }

    std::vector<host::BlockRequest> requests;

  private:
    sim::Simulator &_sim;
    std::uint64_t _capacity;
    sim::Tick _latency;
};

/** Run @p sim until @p pred or fail after @p timeout. */
inline bool
runUntil(sim::Simulator &sim, const std::function<bool()> &pred,
         sim::Tick timeout = sim::seconds(30))
{
    sim::Tick deadline = sim.now() + timeout;
    while (!pred()) {
        if (sim.now() >= deadline)
            return false;
        sim.runUntil(sim.now() + sim::milliseconds(1));
    }
    return true;
}

/**
 * Test-side NVMe initiator over raw rings in untimed memory (e.g. a
 * FakeUpstream), writing each register and doorbell straight to the
 * device through @p mmio. Queues are named by qid; the admin pair (32
 * entries, SQ at 0x10000, CQ at 0x20000) is qid 0. CIDs count up per
 * queue and are never reused, so a test may fill a ring without
 * reaping it and read dispatch order off the CIDs.
 */
class RingInitiator
{
  public:
    using Mmio = std::function<void(std::uint64_t offset,
                                    std::uint64_t value)>;

    RingInitiator(sim::Simulator &sim, pcie::MemoryIf &memory, Mmio mmio)
        : _sim(sim), _memory(memory), _mmio(std::move(mmio))
    {
        _queues.emplace(0, Queue{{memory, 0, 32, 0x10000, 0x20000}});
    }

    /** Enable the controller with the admin pair. */
    void
    enable()
    {
        for (const nvme::RegWrite &w : _queues.at(0).rings.enable())
            write(w);
    }

    /** Create IO pair @p qid of @p entries at @p sq / @p cq in WRR
     *  class @p prio; both admin commands must succeed. */
    void
    createIoQueue(std::uint16_t qid, std::uint16_t entries,
                  std::uint64_t sq, std::uint64_t cq,
                  std::uint8_t prio = nvme::kQPrioMedium)
    {
        Queue &q = _queues.insert_or_assign(
                              qid, Queue{{_memory, qid, entries, sq, cq}})
                       .first->second;
        EXPECT_TRUE(submit(0, q.rings.createCq()).ok());
        EXPECT_TRUE(submit(0, q.rings.createSq(prio)).ok());
    }

    /** Write @p sqe at queue @p qid's tail with its next CID, without
     *  ringing. */
    void
    place(std::uint16_t qid, const nvme::Sqe &sqe)
    {
        Queue &q = _queues.at(qid);
        q.rings.push(sqe, q.nextCid++);
    }

    /** Ring queue @p qid's SQ doorbell at its tail. */
    void ring(std::uint16_t qid) { write(_queues.at(qid).rings.sqDoorbell()); }

    /** place() then ring(). */
    void
    post(std::uint16_t qid, const nvme::Sqe &sqe)
    {
        place(qid, sqe);
        ring(qid);
    }

    /** Pop queue @p qid's next CQE into @p out if it has landed, and
     *  ring the CQ head. */
    bool
    poll(std::uint16_t qid, nvme::Cqe &out)
    {
        nvme::QueueRings &rings = _queues.at(qid).rings;
        std::optional<nvme::Cqe> cqe = rings.pop();
        if (!cqe)
            return false;
        write(rings.cqDoorbell());
        out = *cqe;
        return true;
    }

    /** Wait for queue @p qid's next CQE. */
    nvme::Cqe
    reap(std::uint16_t qid)
    {
        nvme::Cqe out;
        EXPECT_TRUE(runUntil(_sim, [&] { return poll(qid, out); }));
        return out;
    }

    /** post() then reap(). */
    nvme::Cqe
    submit(std::uint16_t qid, const nvme::Sqe &sqe)
    {
        post(qid, sqe);
        return reap(qid);
    }

  private:
    struct Queue
    {
        nvme::QueueRings rings;
        std::uint16_t nextCid = 0;
    };

    void write(const nvme::RegWrite &w) { _mmio(w.offset, w.value); }

    sim::Simulator &_sim;
    pcie::MemoryIf &_memory;
    Mmio _mmio;
    std::map<std::uint16_t, Queue> _queues;
};

} // namespace bms::test

#endif // BMS_TESTS_TEST_UTIL_HH
