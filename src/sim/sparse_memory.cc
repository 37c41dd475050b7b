#include "sim/sparse_memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/check.hh"

namespace bms::sim {

SparseMemory::Chunk *
SparseMemory::findChunk(std::uint64_t page) const
{
    std::uint64_t key = page / kChunkPages;
    if (_last && _lastKey == key)
        return _last;
    auto it = _chunks.find(key);
    if (it == _chunks.end())
        return nullptr;
    _lastKey = key;
    // Map nodes never move, so the pointer stays valid until erased.
    _last = const_cast<Chunk *>(&it->second);
    return _last;
}

SparseMemory::Chunk &
SparseMemory::chunkFor(std::uint64_t page)
{
    if (Chunk *c = findChunk(page))
        return *c;
    _lastKey = page / kChunkPages;
    _last = &_chunks[_lastKey];
    return *_last;
}

PageStore::Id
SparseMemory::lookup(std::uint64_t page) const
{
    Chunk *c = findChunk(page);
    return c ? c->ids[page % kChunkPages] : PageStore::kZero;
}

void
SparseMemory::mapRun(std::uint64_t page, std::uint64_t n,
                     const PageStore::Id *ids)
{
    Chunk *c = findChunk(page);
    bool dropped = false;
    for (std::uint64_t i = 0; i < n; ++i) {
        PageStore::Id id = ids ? ids[i] : PageStore::kZero;
        if (!c) {
            if (id == PageStore::kZero)
                continue; // absent stays absent
            c = &chunkFor(page);
        }
        PageStore::Id &slot = c->ids[(page + i) % kChunkPages];
        PageStore::Id old = slot;
        slot = id;
        if (old == PageStore::kZero && id != PageStore::kZero) {
            ++c->present;
            ++_present;
        } else if (old != PageStore::kZero && id == PageStore::kZero) {
            --c->present;
            --_present;
        }
        dropped |= old != PageStore::kZero;
        _store.release(old);
    }
    // A leaf goes with its last page; one emptied by clear() stays.
    if (dropped && c->present == 0) {
        _chunks.erase(page / kChunkPages);
        _last = nullptr;
    }
}

std::uint8_t *
SparseMemory::own(std::uint64_t page, bool keep)
{
    Chunk &c = chunkFor(page);
    PageStore::Id &slot = c.ids[page % kChunkPages];
    if (_store.writable(slot))
        return _store.data(slot);
    // Absent, shared or a unit page: the page other holders see never
    // changes, so this memory moves to a fresh frame.
    PageStore::Id fresh = _store.alloc();
    if (keep)
        _store.read(slot, 0, kPageBytes, _store.data(fresh));
    if (slot == PageStore::kZero) {
        ++c.present;
        ++_present;
    }
    _store.release(slot);
    slot = fresh;
    return _store.data(fresh);
}

void
SparseMemory::read(std::uint64_t addr, std::uint64_t len, DataOut out) const
{
    if (out.mem) {
        out.mem->copyFrom(out.addr, len, *this, addr);
        return;
    }
    std::uint8_t *dst = out.bytes;
    while (len > 0) {
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t n = std::min(len, kPageBytes - off);
        _store.read(lookup(addr / kPageBytes), off, n, dst);
        addr += n;
        dst += n;
        len -= n;
    }
}

void
SparseMemory::write(std::uint64_t addr, std::uint64_t len, DataIn in)
{
    if (in.mem) {
        copyFrom(addr, len, *in.mem, in.addr);
        return;
    }
    const std::uint8_t *src = in.bytes;
    while (len > 0) {
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t n = std::min(len, kPageBytes - off);
        std::memcpy(own(addr / kPageBytes, n < kPageBytes) + off, src, n);
        addr += n;
        src += n;
        len -= n;
    }
}

void
SparseMemory::copyFrom(std::uint64_t addr, std::uint64_t len,
                       const SparseMemory &src, std::uint64_t src_addr)
{
    BMS_ASSERT(&src._store == &_store,
               "pages move only within one page store");
    BMS_ASSERT(&src != this, "transfer within one memory");
    const bool aligned = addr % kPageBytes == src_addr % kPageBytes;
    while (len > 0) {
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t n = std::min(len, kPageBytes - off);
        if (aligned && n == kPageBytes) {
            // A run of whole pages inside one leaf of each memory.
            const std::uint64_t page = addr / kPageBytes;
            const std::uint64_t src_page = src_addr / kPageBytes;
            const std::uint64_t pages =
                std::min({len / kPageBytes, kChunkPages - page % kChunkPages,
                          kChunkPages - src_page % kChunkPages});
            const Chunk *from = src.findChunk(src_page);
            const PageStore::Id *ids =
                from ? &from->ids[src_page % kChunkPages] : nullptr;
            for (std::uint64_t i = 0; ids && i < pages; ++i)
                _store.retain(ids[i]);
            mapRun(page, pages, ids);
            n = pages * kPageBytes;
        } else {
            src.read(src_addr, n, own(addr / kPageBytes, n < kPageBytes) + off);
        }
        addr += n;
        src_addr += n;
        len -= n;
    }
}

void
SparseMemory::fillUnit(std::uint64_t addr, const PageStore::Unit &unit)
{
    BMS_ASSERT_EQ(addr % kPageBytes, 0u, "fillUnit needs a page address");
    const PageStore::Id id = _store.allocUnit(unit);
    mapRun(addr / kPageBytes, 1, &id);
}

std::optional<PageStore::Unit>
SparseMemory::unit(std::uint64_t addr) const
{
    PageStore::Id id = lookup(addr / kPageBytes);
    if (!PageStore::isUnit(id))
        return std::nullopt;
    return _store.unit(id);
}

void
SparseMemory::clear()
{
    // BMS_LINT_ALLOW(unordered-iter): dropping references commutes —
    // no order of releases is observable.
    for (auto &[key, c] : _chunks) {
        for (PageStore::Id &id : c.ids) {
            _store.release(id);
            id = PageStore::kZero;
        }
        c.present = 0;
    }
    _present = 0;
}

void
SparseMemory::clearRange(std::uint64_t addr, std::uint64_t len)
{
    while (len > 0) {
        std::uint64_t page = addr / kPageBytes;
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t n = std::min(len, kPageBytes - off);
        if (n == kPageBytes) {
            // A run of whole pages inside one leaf.
            const std::uint64_t pages = std::min(
                len / kPageBytes, kChunkPages - page % kChunkPages);
            mapRun(page, pages, nullptr);
            n = pages * kPageBytes;
        } else if (lookup(page) != PageStore::kZero) {
            std::memset(own(page, true) + off, 0, n);
        }
        addr += n;
        len -= n;
    }
}

} // namespace bms::sim
