/**
 * @file
 * LBA Mapping Table — paper Fig. 4(a) and Eqs. (1)-(4).
 *
 * Each namespace owns one mapping table: a two-dimensional array of
 * mapping entries (rows x entries-per-row, default 8 x 8) plus one
 * 8-bit validation vector per row. Back-end capacity is carved into
 * fixed chunks (64 GiB in production).
 *
 * Two entry formats exist:
 *
 *  - **narrow** (default, bit-accurate to Fig. 4(a)): 8-bit entries
 *    packing a 6-bit chunk base (physical chunk index on the target
 *    SSD) and a 2-bit SSD id — four local back-end slots.
 *  - **wide** (disaggregated tier, §VI-D extension): 16-bit entries
 *    packing an 8-bit chunk base and a 4-bit slot id, so a chunk can
 *    resolve to one of 16 back-end slots. Slots beyond the local
 *    SSDs address remote storage-node volumes (the engine's slot
 *    catalog maps slot → (node, volume)), which is how a mapping
 *    entry names a (node, ssd, chunk) location while translation
 *    stays a single table lookup.
 *
 * Translation of a host LBA (HL) with chunk size CS (in blocks) and
 * EN entries per row:
 *
 *   i      = (HL / CS) / EN          -- Eq. (1), row
 *   j      = (HL / CS) mod EN        -- Eq. (2), column
 *   SSD_ID = MT[i][j][1:0]           -- Eq. (3)  (wide: [3:0])
 *   PL     = MT[i][j][7:2] * CS + HL mod CS   -- Eq. (4)  (wide: [15:4])
 */

#ifndef BMS_CORE_ENGINE_LBA_MAP_HH
#define BMS_CORE_ENGINE_LBA_MAP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "nvme/defs.hh"
#include "sim/types.hh"

namespace bms::core {

/** Geometry of a mapping table. */
struct LbaMapGeometry
{
    std::uint32_t rows = 8;
    std::uint32_t entriesPerRow = 8;
    /** Chunk size in logical blocks (64 GiB of 4 KiB blocks). */
    std::uint64_t chunkBlocks = sim::gib(64) / nvme::kBlockSize;
    /** 16-bit entries: 4-bit slot id + 8-bit chunk base (remote tier). */
    bool wide = false;

    /** Largest slot id an entry can hold in this geometry. */
    std::uint8_t maxSlotId() const { return wide ? 0x0f : 0x03; }
    /** Largest chunk base an entry can hold in this geometry. */
    std::uint32_t maxChunkBase() const { return wide ? 0xff : 0x3f; }

    /** Largest host LBA space this geometry can map, in blocks. */
    std::uint64_t
    capacityBlocks() const
    {
        return static_cast<std::uint64_t>(rows) * entriesPerRow *
               chunkBlocks;
    }
};

/** Result of a successful translation. */
struct LbaMapping
{
    std::uint8_t ssdId = 0;
    std::uint64_t physLba = 0;
};

/** One namespace's mapping table, bit-accurate to Fig. 4(a). */
class LbaMapTable
{
  public:
    explicit LbaMapTable(LbaMapGeometry geom = LbaMapGeometry());

    const LbaMapGeometry &geometry() const { return _geom; }

    /**
     * Program entry (@p row, @p col) to point at physical chunk
     * @p chunk_base of SSD @p ssd_id and mark it valid.
     * @return false if any argument exceeds the field widths.
     */
    bool setEntry(std::uint32_t row, std::uint32_t col,
                  std::uint8_t chunk_base, std::uint8_t ssd_id);

    /** Clear the validation bit of (@p row, @p col). */
    void invalidate(std::uint32_t row, std::uint32_t col);

    /** Raw packed entry (tests / AXI readback): 8 significant bits in
     *  narrow mode, 16 in wide mode. */
    std::uint16_t rawEntry(std::uint32_t row, std::uint32_t col) const;

    /** Decoded back-end slot id of entry (@p row, @p col). */
    std::uint8_t entrySlot(std::uint32_t row, std::uint32_t col) const;

    /** Decoded chunk base of entry (@p row, @p col). */
    std::uint32_t entryBase(std::uint32_t row, std::uint32_t col) const;

    /** Raw validation vector of @p row. */
    std::uint8_t validationVector(std::uint32_t row) const;

    bool entryValid(std::uint32_t row, std::uint32_t col) const;

    /**
     * @name Shared (copy-on-write) entry state.
     *
     * A shared entry points at a physical chunk that is also pinned
     * by a snapshot or referenced by a clone (its chunk row has more
     * than one holder). The data path must not write through a shared
     * entry: the engine holds such writes and triggers a chunk CoW
     * first. setEntry() and invalidate() clear the bit — a freshly
     * programmed or invalidated entry is always private.
     */
    /// @{
    void setShared(std::uint32_t row, std::uint32_t col, bool shared);
    bool entryShared(std::uint32_t row, std::uint32_t col) const;
    /** Shared state of the entry covering @p host_lba (false when the
     *  LBA is unmapped or out of range). */
    bool sharedAt(std::uint64_t host_lba) const;
    /// @}

    /**
     * Translate host LBA → (SSD id, physical LBA) per Eqs. (1)-(4).
     * Returns nullopt when the covering entry is invalid or the LBA
     * is beyond the table.
     */
    std::optional<LbaMapping> translate(std::uint64_t host_lba) const;

    /**
     * Program the next invalid slot (row-major order) — the
     * allocation pattern the BMS-Controller uses when growing a
     * namespace. @return the (row, col) programmed, or nullopt when
     * the table is full.
     */
    std::optional<std::pair<std::uint32_t, std::uint32_t>>
    appendChunk(std::uint8_t chunk_base, std::uint8_t ssd_id);

    /** Number of valid entries (mapped chunks). */
    std::uint32_t validCount() const;

    /**
     * Structure-wide self-check (BMS_ASSERT on violation):
     *  - validation-vector bits beyond entriesPerRow are never set;
     *  - no two valid entries map the same physical chunk (overlapping
     *    64 GiB regions on one SSD would corrupt tenant data).
     * Runs after every mutation under Check::paranoid(); tests call it
     * directly.
     */
    void checkInvariants() const;

  private:
    static constexpr std::uint8_t kSsdIdMask = 0x03;  // bits [1:0]
    static constexpr std::uint8_t kBaseShift = 2;     // bits [7:2]
    static constexpr std::uint8_t kBaseMax = 0x3f;    // 6 bits
    static constexpr std::uint16_t kWideSsdIdMask = 0x0f; // bits [3:0]
    static constexpr std::uint8_t kWideBaseShift = 4;     // bits [15:4]

    LbaMapGeometry _geom;
    std::vector<std::uint16_t> _entries;   // rows * entriesPerRow
    std::vector<std::uint8_t> _validation; // one vector per row
    std::vector<std::uint8_t> _shared;     // one CoW vector per row
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_LBA_MAP_HH
