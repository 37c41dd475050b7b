#include "nvme/prp.hh"

#include <cstring>

#include "sim/check.hh"

namespace bms::nvme {

std::uint32_t
prpPageCount(std::uint64_t addr, std::uint64_t len)
{
    if (len == 0)
        return 0;
    std::uint64_t first = addr / kPageSize;
    std::uint64_t last = (addr + len - 1) / kPageSize;
    return static_cast<std::uint32_t>(last - first + 1);
}

bool
needsPrpList(std::uint64_t addr, std::uint64_t len)
{
    return prpPageCount(addr, len) > 2;
}

PrpPair
buildPrp(std::uint64_t addr, std::uint64_t len, std::uint64_t list_addr,
         pcie::MemoryIf &memory)
{
    PrpPair pair;
    pair.prp1 = addr;
    std::uint32_t pages = prpPageCount(addr, len);
    if (pages <= 1) {
        pair.prp2 = 0;
        return pair;
    }
    std::uint64_t second_page = (addr / kPageSize + 1) * kPageSize;
    if (pages == 2) {
        pair.prp2 = second_page;
        return pair;
    }
    // PRP list: entries for pages 2..N (page-aligned addresses).
    pair.hasList = true;
    pair.prp2 = list_addr;
    pair.listEntries = pages - 1;
    BMS_ASSERT_LE(pair.listEntries * sizeof(std::uint64_t), kPageSize,
                  "single-page PRP lists only (transfers up to 2 MiB)");
    std::uint64_t entries[kPageSize / sizeof(std::uint64_t)];
    for (std::uint32_t i = 0; i < pair.listEntries; ++i)
        entries[i] = second_page + static_cast<std::uint64_t>(i) * kPageSize;
    memory.write(list_addr,
                 static_cast<std::uint32_t>(pair.listEntries *
                                            sizeof(std::uint64_t)),
                 reinterpret_cast<const std::uint8_t *>(entries));
    return pair;
}

namespace {

void
appendSegment(std::vector<DmaSegment> &segs, std::uint64_t addr,
              std::uint32_t len)
{
    if (!segs.empty() && segs.back().addr + segs.back().len == addr) {
        segs.back().len += len;
    } else {
        segs.push_back(DmaSegment{addr, len});
    }
}

} // namespace

std::vector<DmaSegment>
decodePrp(std::uint64_t prp1, std::uint64_t prp2, std::uint64_t len,
          const std::vector<std::uint64_t> &list_entries,
          std::vector<DmaSegment> segs)
{
    segs.clear();
    if (len == 0)
        return segs;

    std::uint64_t offset = prp1 % kPageSize;
    std::uint64_t first_len = kPageSize - offset;
    if (first_len > len)
        first_len = len;
    appendSegment(segs, prp1, static_cast<std::uint32_t>(first_len));
    std::uint64_t remaining = len - first_len;
    if (remaining == 0)
        return segs;

    if (list_entries.empty()) {
        // PRP2 is a direct second-page pointer.
        BMS_ASSERT_LE(remaining, kPageSize,
                      "transfer needs a PRP list but PRP2 is direct");
        appendSegment(segs, prp2, static_cast<std::uint32_t>(remaining));
        return segs;
    }

    for (std::uint64_t entry : list_entries) {
        if (remaining == 0)
            break;
        std::uint64_t chunk = remaining < kPageSize ? remaining : kPageSize;
        appendSegment(segs, entry, static_cast<std::uint32_t>(chunk));
        remaining -= chunk;
    }
    BMS_ASSERT_EQ(remaining, 0u, "PRP list too short for transfer");
    return segs;
}

} // namespace bms::nvme
