/**
 * @file
 * Host DRAM: sparse functional storage (pages of the simulation's
 * page store) plus a bump allocator for driver/application buffers
 * (queue rings, PRP lists, data buffers).
 */

#ifndef BMS_HOST_HOST_MEMORY_HH
#define BMS_HOST_HOST_MEMORY_HH

#include "sim/check.hh"
#include <cstdint>

#include "pcie/types.hh"
#include "sim/sparse_memory.hh"

namespace bms::host {

/** Physical memory of one host. */
class HostMemory : public pcie::MemoryIf
{
  public:
    /** Allocations start above the (modeled) kernel image. */
    static constexpr std::uint64_t kAllocBase = 0x0100'0000;

    explicit HostMemory(sim::PageStore &store) : _mem(store) {}

    void
    read(std::uint64_t addr, std::uint32_t len, sim::DataOut out) override
    {
        _mem.read(addr, len, out);
    }

    void
    write(std::uint64_t addr, std::uint32_t len, sim::DataIn data) override
    {
        _mem.write(addr, len, data);
    }

    void
    release(std::uint64_t addr, std::uint64_t len) override
    {
        _mem.clearRange(addr, len);
    }

    /**
     * Allocate @p len bytes aligned to @p align (power of two).
     * Allocations are never freed — testbeds are torn down whole.
     */
    std::uint64_t
    alloc(std::uint64_t len, std::uint64_t align = 4096)
    {
        BMS_ASSERT(align && (align & (align - 1)) == 0,
                   "alignment must be a power of two: ", align);
        _next = (_next + align - 1) & ~(align - 1);
        std::uint64_t addr = _next;
        _next += len;
        BMS_ASSERT_LT(_next, 1ull << 48,
                      "48-bit host address space exhausted");
        return addr;
    }

    sim::SparseMemory &raw() { return _mem; }

  private:
    sim::SparseMemory _mem;
    std::uint64_t _next = kAllocBase;
};

} // namespace bms::host

#endif // BMS_HOST_HOST_MEMORY_HH
