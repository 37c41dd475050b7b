/**
 * @file
 * BMS-Engine on-chip memory (FPGA BRAM/URAM + card DRAM).
 *
 * Holds the back-end SQ/CQ rings of the host adaptors and the
 * rewritten (global) PRP lists. It occupies a dedicated address
 * window distinct from the 48-bit host physical space, so the DMA
 * router can tell a chip access apart from a routed host access by
 * address alone — just like the real engine decodes TLP destination
 * addresses.
 */

#ifndef BMS_CORE_ENGINE_CHIP_MEMORY_HH
#define BMS_CORE_ENGINE_CHIP_MEMORY_HH

#include <cstdint>

#include "pcie/types.hh"
#include "sim/check.hh"
#include "sim/sparse_memory.hh"

namespace bms::core {

/** Engine-local memory with its own address window. */
class ChipMemory : public pcie::MemoryIf
{
  public:
    /** Window base: bit 46, outside any host allocation but within
     *  the 48-bit "original address" field of a global PRP. */
    static constexpr std::uint64_t kWindowBase = 1ull << 46;
    static constexpr std::uint64_t kWindowSize = 1ull << 34; // 16 GiB

    static bool
    contains(std::uint64_t addr)
    {
        return addr >= kWindowBase && addr < kWindowBase + kWindowSize;
    }

    explicit ChipMemory(sim::PageStore &store) : _mem(store) {}

    void
    read(std::uint64_t addr, std::uint32_t len, sim::DataOut out) override
    {
        BMS_ASSERT(contains(addr),
                   "chip-memory read outside window: addr=", addr);
        _mem.read(addr - kWindowBase, len, out);
    }

    void
    write(std::uint64_t addr, std::uint32_t len, sim::DataIn data) override
    {
        BMS_ASSERT(contains(addr),
                   "chip-memory write outside window: addr=", addr);
        _mem.write(addr - kWindowBase, len, data);
    }

    /** Drop [addr, addr+len): it reads as zeroes again. */
    void
    clear(std::uint64_t addr, std::uint64_t len)
    {
        BMS_ASSERT(contains(addr) && contains(addr + len - 1),
                   "chip-memory clear outside window: addr=", addr);
        _mem.clearRange(addr - kWindowBase, len);
    }

    /** Pages present (written and not since dropped). */
    std::size_t allocatedPages() const { return _mem.allocatedPages(); }

    /** Allocate chip memory (rings, PRP-list slots). Never freed. */
    std::uint64_t
    alloc(std::uint64_t len, std::uint64_t align = 64)
    {
        BMS_ASSERT(align && (align & (align - 1)) == 0,
                   "alignment must be a power of two: ", align);
        _next = (_next + align - 1) & ~(align - 1);
        std::uint64_t addr = kWindowBase + _next;
        _next += len;
        BMS_ASSERT_LT(_next, kWindowSize, "chip memory exhausted");
        return addr;
    }

  private:
    sim::SparseMemory _mem;
    std::uint64_t _next = 4096;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_CHIP_MEMORY_HH
