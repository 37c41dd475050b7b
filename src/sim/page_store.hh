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
 * first (copy-on-write). Pages are carved from 64 KiB slabs, and a
 * freed page goes back on a free list, never to the heap, until the
 * store itself is destroyed.
 */

#ifndef BMS_SIM_PAGE_STORE_HH
#define BMS_SIM_PAGE_STORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace bms::sim {

/** Refcounted, immutable-once-shared 4 KiB pages. */
class PageStore
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    /** Page handle. */
    using Id = std::uint32_t;

    /**
     * The zero page: all zeroes, owned by the store, never written,
     * never counted live. An address mapped to it is *absent*; a
     * mapping of it holds no reference.
     */
    static constexpr Id kZero = 0;

    PageStore();
    /** Panics when a page is still referenced (a leak). */
    ~PageStore();

    PageStore(const PageStore &) = delete;
    PageStore &operator=(const PageStore &) = delete;

    /** A fresh page with one reference; its bytes are unspecified. */
    Id alloc();

    /** Add a reference to @p id (a no-op for the zero page). */
    void
    retain(Id id)
    {
        if (id != kZero)
            ++_refs[id];
    }

    /** Drop a reference to @p id; the last one frees the page. */
    void
    release(Id id)
    {
        if (id != kZero && --_refs[id] == 0)
            free(id);
    }

    /** True when the sole holder of @p id may write it in place. */
    bool
    writable(Id id) const
    {
        return id != kZero && _refs[id] == 1;
    }

    std::uint8_t *
    data(Id id)
    {
        return _slabs[id / kSlabPages]->bytes[id % kSlabPages];
    }

    const std::uint8_t *
    data(Id id) const
    {
        return _slabs[id / kSlabPages]->bytes[id % kSlabPages];
    }

    /** Pages holding at least one reference. */
    std::size_t livePages() const { return _live; }

    /**
     * The most pages ever live at once. alloc() reuses a freed id
     * before it carves a new one, so the ids carved so far, the zero
     * page aside, are the live high-water mark.
     */
    std::size_t peakPages() const { return _refs.size() - 1; }

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

    void free(Id id);

    std::vector<std::unique_ptr<Slab>> _slabs;
    /** Reference count per page id carved so far. */
    std::vector<std::uint32_t> _refs;
    /** Freed ids, reused last-in first-out. */
    std::vector<Id> _free;
    std::size_t _live = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_PAGE_STORE_HH
