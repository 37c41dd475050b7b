#include "core/engine/lba_map.hh"

#include "sim/check.hh"

namespace bms::core {

LbaMapTable::LbaMapTable(LbaMapGeometry geom)
    : _geom(geom),
      _entries(static_cast<std::size_t>(geom.rows) * geom.entriesPerRow, 0),
      _validation(geom.rows, 0), _shared(geom.rows, 0)
{
    BMS_ASSERT(geom.rows > 0 && geom.entriesPerRow > 0,
               "degenerate mapping-table geometry: rows=", geom.rows,
               " entriesPerRow=", geom.entriesPerRow);
    BMS_ASSERT_LE(geom.entriesPerRow, 8u,
                  "validation vector is an 8-bit field per row (Fig. 4(a))");
    BMS_ASSERT(geom.chunkBlocks > 0, "chunk size must be non-zero");
}

bool
LbaMapTable::setEntry(std::uint32_t row, std::uint32_t col,
                      std::uint8_t chunk_base, std::uint8_t ssd_id)
{
    if (row >= _geom.rows || col >= _geom.entriesPerRow)
        return false;
    if (chunk_base > _geom.maxChunkBase() || ssd_id > _geom.maxSlotId())
        return false;
    _entries[row * _geom.entriesPerRow + col] =
        _geom.wide
            ? static_cast<std::uint16_t>(
                  (static_cast<std::uint16_t>(chunk_base)
                   << kWideBaseShift) |
                  ssd_id)
            : static_cast<std::uint16_t>((chunk_base << kBaseShift) |
                                         ssd_id);
    _validation[row] |= static_cast<std::uint8_t>(1u << col);
    _shared[row] &= static_cast<std::uint8_t>(~(1u << col));
    if (sim::Check::paranoid())
        checkInvariants();
    return true;
}

void
LbaMapTable::invalidate(std::uint32_t row, std::uint32_t col)
{
    if (row >= _geom.rows || col >= _geom.entriesPerRow)
        return;
    _validation[row] &= static_cast<std::uint8_t>(~(1u << col));
    _shared[row] &= static_cast<std::uint8_t>(~(1u << col));
    if (sim::Check::paranoid())
        checkInvariants();
}

void
LbaMapTable::setShared(std::uint32_t row, std::uint32_t col, bool shared)
{
    if (row >= _geom.rows || col >= _geom.entriesPerRow)
        return;
    BMS_ASSERT(!shared || (_validation[row] & (1u << col)),
               "marking an invalid entry shared: row=", row, " col=", col);
    if (shared)
        _shared[row] |= static_cast<std::uint8_t>(1u << col);
    else
        _shared[row] &= static_cast<std::uint8_t>(~(1u << col));
}

bool
LbaMapTable::entryShared(std::uint32_t row, std::uint32_t col) const
{
    if (row >= _geom.rows || col >= _geom.entriesPerRow)
        return false;
    return _shared[row] & (1u << col);
}

bool
LbaMapTable::sharedAt(std::uint64_t host_lba) const
{
    std::uint64_t chunk = host_lba / _geom.chunkBlocks;
    return entryShared(
        static_cast<std::uint32_t>(chunk / _geom.entriesPerRow),
        static_cast<std::uint32_t>(chunk % _geom.entriesPerRow));
}

std::uint16_t
LbaMapTable::rawEntry(std::uint32_t row, std::uint32_t col) const
{
    BMS_ASSERT(row < _geom.rows && col < _geom.entriesPerRow,
               "entry (", row, ",", col, ") outside ", _geom.rows, "x",
               _geom.entriesPerRow, " table");
    return _entries[row * _geom.entriesPerRow + col];
}

std::uint8_t
LbaMapTable::entrySlot(std::uint32_t row, std::uint32_t col) const
{
    std::uint16_t entry = rawEntry(row, col);
    return static_cast<std::uint8_t>(
        _geom.wide ? entry & kWideSsdIdMask : entry & kSsdIdMask);
}

std::uint32_t
LbaMapTable::entryBase(std::uint32_t row, std::uint32_t col) const
{
    std::uint16_t entry = rawEntry(row, col);
    return _geom.wide ? entry >> kWideBaseShift : entry >> kBaseShift;
}

std::uint8_t
LbaMapTable::validationVector(std::uint32_t row) const
{
    BMS_ASSERT_LT(row, _geom.rows, "validation-vector row out of range");
    return _validation[row];
}

bool
LbaMapTable::entryValid(std::uint32_t row, std::uint32_t col) const
{
    if (row >= _geom.rows || col >= _geom.entriesPerRow)
        return false;
    return _validation[row] & (1u << col);
}

std::optional<LbaMapping>
LbaMapTable::translate(std::uint64_t host_lba) const
{
    std::uint64_t chunk = host_lba / _geom.chunkBlocks; // HL / CS
    std::uint64_t row = chunk / _geom.entriesPerRow;    // Eq. (1)
    std::uint64_t col = chunk % _geom.entriesPerRow;    // Eq. (2)
    if (row >= _geom.rows)
        return std::nullopt;
    if (!(_validation[row] & (1u << col)))
        return std::nullopt;
    std::uint16_t entry =
        _entries[row * _geom.entriesPerRow + col];
    LbaMapping m;
    std::uint64_t base;
    if (_geom.wide) {
        m.ssdId = static_cast<std::uint8_t>(entry & kWideSsdIdMask);
        base = entry >> kWideBaseShift;
    } else {
        m.ssdId = static_cast<std::uint8_t>(entry & kSsdIdMask); // Eq. (3)
        base = entry >> kBaseShift;
    }
    m.physLba = base * _geom.chunkBlocks +
                host_lba % _geom.chunkBlocks;                    // Eq. (4)
    return m;
}

std::optional<std::pair<std::uint32_t, std::uint32_t>>
LbaMapTable::appendChunk(std::uint8_t chunk_base, std::uint8_t ssd_id)
{
    for (std::uint32_t row = 0; row < _geom.rows; ++row) {
        for (std::uint32_t col = 0; col < _geom.entriesPerRow; ++col) {
            if (!entryValid(row, col)) {
                if (!setEntry(row, col, chunk_base, ssd_id))
                    return std::nullopt;
                return std::make_pair(row, col);
            }
        }
    }
    return std::nullopt;
}

std::uint32_t
LbaMapTable::validCount() const
{
    std::uint32_t n = 0;
    for (std::uint32_t row = 0; row < _geom.rows; ++row)
        for (std::uint32_t col = 0; col < _geom.entriesPerRow; ++col)
            if (entryValid(row, col))
                ++n;
    return n;
}

void
LbaMapTable::checkInvariants() const
{
    // Valid (slot, chunk base) pairs, for the overlap check below.
    // Narrow entries span 2+6 bits, wide 4+8; the packed entry value
    // is a unique key for the pair in either format.
    std::vector<bool> seen(_geom.wide ? 1u << 16 : 1u << 8, false);
    for (std::uint32_t row = 0; row < _geom.rows; ++row) {
        BMS_ASSERT_EQ(_validation[row] >> _geom.entriesPerRow, 0,
                      "validation vector of row ", row,
                      " has bits set beyond entriesPerRow=",
                      _geom.entriesPerRow);
        BMS_ASSERT_EQ(_shared[row] & ~_validation[row], 0,
                      "shared (CoW) bit set on an invalid entry in row ",
                      row);
        for (std::uint32_t col = 0; col < _geom.entriesPerRow; ++col) {
            if (!(_validation[row] & (1u << col)))
                continue;
            std::uint16_t entry = _entries[row * _geom.entriesPerRow + col];
            if (seen[entry]) {
                BMS_PANIC("two valid entries map the same chunk: ssd=",
                          entrySlot(row, col), " base=",
                          entryBase(row, col), " (second at row=", row,
                          " col=", col, ")");
            }
            seen[entry] = true;
        }
    }
}

} // namespace bms::core
