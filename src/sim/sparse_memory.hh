/**
 * @file
 * Sparse byte-addressable memory: a page table mapping the 4 KiB
 * pages of an address space onto pages of the simulation's shared
 * PageStore. Backs host DRAM, engine chip memory and SSD flash, and
 * holds the payload of a DMA in flight, so end-to-end data-integrity
 * tests move real bytes while synthetic benchmarks skip allocation
 * entirely (timing-only transfers pass null buffers and never touch
 * this).
 *
 * Between two memories at the same in-page offset, a transfer moves
 * every whole page by reference and copies only the unaligned edges.
 * A page nobody wrote is absent: it reads as zeroes, and moving it
 * leaves the destination page absent too.
 */

#ifndef BMS_SIM_SPARSE_MEMORY_HH
#define BMS_SIM_SPARSE_MEMORY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <unordered_map>

#include "sim/page_store.hh"

namespace bms::sim {

/**
 * One side of a transfer: raw bytes, or a range of a memory whose
 * whole aligned pages then move by reference. Neither is set for a
 * timing-only transfer.
 */
template <typename Byte, typename Memory>
struct DataRef
{
    DataRef() = default;
    DataRef(std::nullptr_t) {}
    DataRef(Byte *b) : bytes(b) {}
    DataRef(Memory &m, std::uint64_t a) : mem(&m), addr(a) {}

    /** A writable side also serves as a read-only one. */
    template <typename B, typename M>
        requires std::is_convertible_v<B *, Byte *>
    DataRef(const DataRef<B, M> &o) : bytes(o.bytes), mem(o.mem), addr(o.addr)
    {}

    explicit operator bool() const { return bytes || mem; }

    /** The same side, @p off bytes further on. */
    DataRef
    operator+(std::uint64_t off) const
    {
        DataRef r = *this;
        if (r.bytes)
            r.bytes += off;
        r.addr += off;
        return r;
    }

    Byte *bytes = nullptr;
    Memory *mem = nullptr;
    std::uint64_t addr = 0;
};

class SparseMemory;
/** Where a read lands. */
using DataOut = DataRef<std::uint8_t, SparseMemory>;
/** Where a write comes from. */
using DataIn = DataRef<const std::uint8_t, const SparseMemory>;

/** Sparse memory; reads of never-written pages return zeroes. */
class SparseMemory
{
  public:
    static constexpr std::uint64_t kPageBytes = PageStore::kPageBytes;

    explicit SparseMemory(PageStore &store) : _store(store) {}
    ~SparseMemory() { clear(); }

    SparseMemory(const SparseMemory &) = delete;
    SparseMemory &operator=(const SparseMemory &) = delete;

    /**
     * Read [addr, addr+len) into @p out: bytes are copied; a memory
     * range receives whole aligned pages by reference.
     */
    void read(std::uint64_t addr, std::uint64_t len, DataOut out) const;

    /**
     * Write [addr, addr+len) from @p in: bytes are copied (a shared
     * page first, when only part of it is written); a memory range
     * hands over whole aligned pages by reference.
     */
    void write(std::uint64_t addr, std::uint64_t len, DataIn in);

    /**
     * The bytes of the page at page-aligned @p addr, for the caller to
     * overwrite whole. A shared or absent page is replaced by a fresh
     * one without copying it.
     */
    std::uint8_t *fillPage(std::uint64_t addr);

    /**
     * The bytes of the page holding @p addr (the zero page when
     * absent), valid until this memory is next written.
     */
    const std::uint8_t *page(std::uint64_t addr) const;

    /**
     * Drop all contents. Callers: a disk pulled by hot-plug
     * (`SsdDevice::detached`, `ZnsSsd::detached`), a wiping
     * `SsdDevice::hardReset`, and the destructor.
     */
    void clear();

    /**
     * Drop whole pages inside [addr, addr+len) — subsequent reads
     * return zeroes (TRIM / zone reset). Partial pages at the edges
     * are zero-filled rather than dropped.
     */
    void clearRange(std::uint64_t addr, std::uint64_t len);

    /** Pages present, i.e. mapped to anything but the zero page. */
    std::size_t allocatedPages() const { return _present; }

  private:
    static constexpr std::uint64_t kChunkPages = 64;

    /** Page-table leaf: 64 consecutive pages (256 KiB). */
    struct Chunk
    {
        std::array<PageStore::Id, kChunkPages> ids{};
        std::uint32_t present = 0;
    };

    /** The chunk holding @p page, or null. */
    Chunk *findChunk(std::uint64_t page) const;
    Chunk &chunkFor(std::uint64_t page);
    PageStore::Id lookup(std::uint64_t page) const;
    /** Map @p page to @p id, whose reference the caller hands over. */
    void map(std::uint64_t page, PageStore::Id id);
    /** Bytes of @p page that only this memory holds; @p keep copies
     *  the old contents in when the page must be replaced. */
    std::uint8_t *own(std::uint64_t page, bool keep);
    void copyFrom(std::uint64_t addr, std::uint64_t len,
                  const SparseMemory &src, std::uint64_t src_addr);

    PageStore &_store;
    std::unordered_map<std::uint64_t, Chunk> _chunks;
    /** Last chunk looked up: transfers walk consecutive pages. */
    mutable std::uint64_t _lastKey = 0;
    mutable Chunk *_last = nullptr;
    std::size_t _present = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_SPARSE_MEMORY_HH
