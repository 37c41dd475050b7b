/**
 * @file
 * PRP (Physical Region Page) construction and decoding.
 *
 * The host NVMe driver builds PRP1/PRP2 (+ a PRP list in host memory
 * when a transfer spans more than two pages). Devices decode PRPs
 * into DMA segments. The BMS-Engine rewrites each PRP entry into a
 * *global PRP* (see core/engine/global_prp.hh), so this module keeps
 * entry arithmetic separate from data movement.
 */

#ifndef BMS_NVME_PRP_HH
#define BMS_NVME_PRP_HH

#include <cstdint>
#include <vector>

#include "nvme/defs.hh"
#include "pcie/types.hh"

namespace bms::nvme {

/** One contiguous DMA segment of a data transfer. */
struct DmaSegment
{
    std::uint64_t addr = 0;
    std::uint32_t len = 0;

    bool operator==(const DmaSegment &) const = default;
};

/** Result of building PRPs for a transfer. */
struct PrpPair
{
    std::uint64_t prp1 = 0;
    std::uint64_t prp2 = 0;
    bool hasList = false;
    std::uint32_t listEntries = 0; ///< entries stored at the list address
};

/** Number of pages touched by a transfer starting at @p addr. */
std::uint32_t prpPageCount(std::uint64_t addr, std::uint64_t len);

/** True if a transfer needs a PRP list (more than two pages). */
bool needsPrpList(std::uint64_t addr, std::uint64_t len);

/**
 * Build PRP1/PRP2 for a physically contiguous buffer [addr, addr+len).
 * If a PRP list is required it is written to @p list_addr in
 * @p memory (caller owns that allocation; must fit within one page).
 */
PrpPair buildPrp(std::uint64_t addr, std::uint64_t len,
                 std::uint64_t list_addr, pcie::MemoryIf &memory);

/**
 * Decode PRPs into DMA segments, coalescing physically contiguous
 * pages. @p list_entries are the raw 8-byte entries of the PRP list
 * (already fetched by the caller; empty when !hasList).
 *
 * @param prp1 first PRP entry (may carry a page offset)
 * @param prp2 second PRP entry or list pointer
 * @param len total transfer bytes
 * @param list_entries fetched PRP-list entries, if any
 * @param segs storage to decode into (its capacity is reused)
 */
std::vector<DmaSegment>
decodePrp(std::uint64_t prp1, std::uint64_t prp2, std::uint64_t len,
          const std::vector<std::uint64_t> &list_entries,
          std::vector<DmaSegment> segs = {});

} // namespace bms::nvme

#endif // BMS_NVME_PRP_HH
