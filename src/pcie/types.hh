/**
 * @file
 * PCIe model fundamentals: function identities, generation/lane
 * bandwidth, and the functional interfaces the fabric depends on.
 *
 * The BM-Store global-PRP mechanism (paper Fig. 4(b)) encodes a 7-bit
 * PCIe function id into reserved PRP bits, so FunctionId is the load-
 * bearing identity type across the whole model.
 */

#ifndef BMS_PCIE_TYPES_HH
#define BMS_PCIE_TYPES_HH

#include <cstdint>

#include "sim/sparse_memory.hh"
#include "sim/types.hh"

namespace bms::pcie {

/** PCIe PF/VF identity; 7 bits per the BM-Store global PRP format. */
using FunctionId = std::uint8_t;

/** BMS-Engine exposes 4 PFs + 124 VFs = 128 functions (paper §IV-E). */
inline constexpr int kMaxFunctions = 128;

/**
 * Effective per-lane Gen3 bandwidth, net of 128b/130b coding and TLP
 * header overhead (~24 B per 256 B payload): ~985 MB/s raw * ~0.89.
 */
inline constexpr double kGen3LaneBytesPerSec = 880e6;

/** Effective bandwidth of a Gen3 link with @p lanes lanes. */
inline constexpr sim::Bandwidth
gen3Lanes(int lanes)
{
    return sim::Bandwidth{kGen3LaneBytesPerSec * lanes};
}

/** @name Sizes of protocol units moved over links. */
/// @{
inline constexpr std::uint32_t kSqeBytes = 64;  ///< NVMe submission entry
inline constexpr std::uint32_t kCqeBytes = 16;  ///< NVMe completion entry
inline constexpr std::uint32_t kPrpEntryBytes = 8;
inline constexpr std::uint32_t kDoorbellBytes = 8;
inline constexpr std::uint32_t kMsixBytes = 16;
/// @}

/**
 * Functional byte-addressable memory. Implemented by the host memory
 * model; also by the BMS-Engine chip memory (global PRP store).
 * Payload moves as page references (see sim::SparseMemory); protocol
 * units (SQEs, CQEs, PRP lists) as bytes.
 */
class MemoryIf
{
  public:
    virtual ~MemoryIf() = default;

    /** Read @p len bytes at @p addr into @p out (must be set). */
    virtual void read(std::uint64_t addr, std::uint32_t len,
                      sim::DataOut out) = 0;

    /** Write @p len bytes from @p data (must be set) to @p addr. */
    virtual void write(std::uint64_t addr, std::uint32_t len,
                       sim::DataIn data) = 0;

    /**
     * Give back the backing of [addr, addr+len): it reads as zeroes
     * until written again (sim::SparseMemory::clearRange).
     */
    virtual void release(std::uint64_t addr, std::uint64_t len) = 0;
};

/** Receiver of MSI-X interrupts (the host interrupt controller). */
class InterruptSinkIf
{
  public:
    virtual ~InterruptSinkIf() = default;

    /** Deliver vector @p vector raised by function @p fn. */
    virtual void raiseInterrupt(FunctionId fn, std::uint16_t vector) = 0;
};

} // namespace bms::pcie

#endif // BMS_PCIE_TYPES_HH
