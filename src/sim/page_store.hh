/**
 * @file
 * The pages behind every functional memory of one simulation: host
 * DRAM, engine chip memory and SSD flash all map their addresses onto
 * 4 KiB pages of one PageStore (see sim/sparse_memory.hh).
 *
 * A page is reference counted, and each mapping of an address to it
 * holds one reference. A DMA moves a whole aligned page by taking a
 * reference to it rather than copying its bytes, so a page that more
 * than one holder maps is shared and never changes: writers copy it
 * first (copy-on-write).
 *
 * A page is one of two kinds. A *frame* holds its 4 KiB of bytes;
 * frames are carved from 64 KiB slabs. A *unit page* is one 32-byte
 * unit repeated 128 times and stores just that unit and its count, so
 * it costs 36 bytes instead of a frame; unit pages are made in blocks
 * of 1,024, as frames are in slabs of 16. A unit page never changes,
 * even with one holder: a byte write into it carves a frame. A freed
 * page of either kind goes back on its kind's free list, never to the
 * heap, until the store itself is destroyed.
 */

#ifndef BMS_SIM_PAGE_STORE_HH
#define BMS_SIM_PAGE_STORE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/check.hh"

namespace bms::sim {

/** Refcounted, immutable-once-shared 4 KiB pages. */
class PageStore
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    /**
     * What a unit page repeats, in memory order: bytes [8k, 8k+8) of
     * every 32-byte group of the page are word k, in host byte order.
     */
    using Unit = std::array<std::uint64_t, 4>;
    static constexpr std::uint64_t kUnitBytes = sizeof(Unit);

    /** Page handle. */
    using Id = std::uint32_t;

    /** Set in the id of a frame, clear in the id of a unit page. */
    static constexpr Id kFrameBit = Id{1} << 31;

    /**
     * The zero page: the zero unit, owned by the store, never counted
     * live. An address mapped to it is *absent*; a mapping of it holds
     * no reference.
     */
    static constexpr Id kZero = 0;

    static constexpr bool isUnit(Id id) { return (id & kFrameBit) == 0; }

    PageStore();
    /** Panics when a page is still referenced (a leak). */
    ~PageStore();

    PageStore(const PageStore &) = delete;
    PageStore &operator=(const PageStore &) = delete;

    /** A fresh frame with one reference; its bytes are unspecified. */
    Id alloc();

    /** A fresh unit page of @p unit with one reference. */
    Id allocUnit(const Unit &unit);

    /** Add a reference to @p id (a no-op for the zero page). */
    void
    retain(Id id)
    {
        if (id != kZero)
            ++refs(id);
    }

    /** Drop a reference to @p id; the last one frees the page. */
    void
    release(Id id)
    {
        if (id != kZero && --refs(id) == 0)
            free(id);
    }

    /** True when the sole holder of frame @p id may write it in place;
     *  never for a unit page. */
    bool
    writable(Id id) const
    {
        return !isUnit(id) && _refs[id & ~kFrameBit] == 1;
    }

    /** The bytes of frame @p id. */
    const std::uint8_t *
    data(Id id) const
    {
        BMS_ASSERT(!isUnit(id), "data() of unit page ", id);
        id &= ~kFrameBit;
        return _slabs[id / kSlabPages]->bytes[id % kSlabPages];
    }

    std::uint8_t *
    data(Id id)
    {
        return const_cast<std::uint8_t *>(std::as_const(*this).data(id));
    }

    /** The 32 bytes unit page @p id repeats. */
    const Unit &
    unit(Id id) const
    {
        BMS_ASSERT(isUnit(id), "unit() of frame ", id & ~kFrameBit);
        return unitBlock(id).units[id % kUnitBlockPages];
    }

    /**
     * Copy bytes [off, off+len) of page @p id, which must lie in the
     * page, to @p dst; a unit page is expanded, the zero page with one
     * memset.
     */
    void
    read(Id id, std::uint64_t off, std::uint64_t len,
         std::uint8_t *dst) const
    {
        if (id == kZero)
            std::memset(dst, 0, len);
        else if (isUnit(id))
            expand(unitBlock(id).units[id % kUnitBlockPages], off, len, dst);
        else
            std::memcpy(dst, data(id) + off, len);
    }

    /** Pages of either kind holding at least one reference. */
    std::size_t livePages() const { return _live; }

    /** Frames holding at least one reference. */
    std::size_t liveFrames() const { return _refs.size() - _free.size(); }

    /** The most pages of either kind ever live at once. */
    std::size_t peakPages() const { return _peak; }

  private:
    /**
     * Small enough to come from the heap arena rather than a fresh
     * mapping, so the next world in one process reuses memory that is
     * already resident instead of faulting it in again.
     */
    static constexpr std::uint32_t kSlabPages = 16;

    struct Slab
    {
        std::uint8_t bytes[kSlabPages][kPageBytes];
    };

    /** Unit pages per block: 36 KiB, from the heap arena for the same
     *  reason as a slab, so the unit table never regrows. */
    static constexpr std::uint32_t kUnitBlockPages = 1024;

    struct UnitBlock
    {
        Unit units[kUnitBlockPages];
        std::uint32_t refs[kUnitBlockPages];
    };

    const UnitBlock &
    unitBlock(Id id) const
    {
        return *_unitBlocks[id / kUnitBlockPages];
    }

    UnitBlock &
    unitBlock(Id id)
    {
        return *_unitBlocks[id / kUnitBlockPages];
    }

    std::uint32_t &
    refs(Id id)
    {
        return isUnit(id) ? unitBlock(id).refs[id % kUnitBlockPages]
                          : _refs[id & ~kFrameBit];
    }

    /** Count a page just handed out; the peak is taken here. */
    void
    addLive()
    {
        if (++_live > _peak)
            _peak = _live;
    }

    static void expand(const Unit &unit, std::uint64_t off,
                       std::uint64_t len, std::uint8_t *dst);
    void free(Id id);

    std::vector<std::unique_ptr<Slab>> _slabs;
    /** Reference count per frame carved so far. */
    std::vector<std::uint32_t> _refs;
    /** Freed frames, reused last-in first-out. */
    std::vector<Id> _free;
    /** Unit and reference count per unit page; unit 0 is the zero
     *  page. */
    std::vector<std::unique_ptr<UnitBlock>> _unitBlocks;
    /** Unit pages made so far. */
    std::uint32_t _units = 0;
    /** Freed unit pages, reused last-in first-out. */
    std::vector<Id> _unitFree;
    std::size_t _live = 0;
    std::size_t _peak = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_PAGE_STORE_HH
