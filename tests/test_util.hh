/**
 * @file
 * Shared test utilities: a functional upstream fake for exercising
 * controllers without a full PCIe hierarchy, a recording block
 * device, and run-until helpers.
 */

#ifndef BMS_TESTS_TEST_UTIL_HH
#define BMS_TESTS_TEST_UTIL_HH

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "host/block.hh"
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
 * Upstream fake: functional memory, one-tick DMA, interrupt capture.
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
    dmaRead(std::uint64_t addr, std::uint32_t len, sim::DataOut out,
            std::function<void()> done) override
    {
        _sim.scheduleAfter(1, [this, addr, len, out,
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

} // namespace bms::test

#endif // BMS_TESTS_TEST_UTIL_HH
