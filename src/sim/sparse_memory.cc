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
SparseMemory::map(std::uint64_t page, PageStore::Id id)
{
    Chunk *c = findChunk(page);
    if (!c) {
        if (id == PageStore::kZero)
            return; // absent stays absent
        c = &chunkFor(page);
    }
    PageStore::Id &slot = c->ids[page % kChunkPages];
    PageStore::Id old = slot;
    slot = id;
    if ((old == PageStore::kZero) != (id == PageStore::kZero)) {
        if (id == PageStore::kZero) {
            --c->present;
            --_present;
        } else {
            ++c->present;
            ++_present;
        }
    }
    _store.release(old);
    if (c->present == 0) {
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
    // Absent or shared: the page other holders see never changes, so
    // this memory moves to a fresh one.
    PageStore::Id fresh = _store.alloc();
    if (keep)
        std::memcpy(_store.data(fresh), _store.data(slot), kPageBytes);
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
        std::memcpy(dst, _store.data(lookup(addr / kPageBytes)) + off, n);
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
            PageStore::Id id = src.lookup(src_addr / kPageBytes);
            _store.retain(id);
            map(addr / kPageBytes, id);
        } else {
            src.read(src_addr, n, own(addr / kPageBytes, n < kPageBytes) + off);
        }
        addr += n;
        src_addr += n;
        len -= n;
    }
}

std::uint8_t *
SparseMemory::fillPage(std::uint64_t addr)
{
    BMS_ASSERT_EQ(addr % kPageBytes, 0u, "fillPage needs a page address");
    return own(addr / kPageBytes, false);
}

const std::uint8_t *
SparseMemory::page(std::uint64_t addr) const
{
    return _store.data(lookup(addr / kPageBytes));
}

void
SparseMemory::clear()
{
    // BMS_LINT_ALLOW(unordered-iter): dropping references commutes —
    // no order of releases is observable.
    for (auto &[key, c] : _chunks)
        for (PageStore::Id id : c.ids)
            _store.release(id);
    _chunks.clear();
    _last = nullptr;
    _present = 0;
}

void
SparseMemory::clearRange(std::uint64_t addr, std::uint64_t len)
{
    while (len > 0) {
        std::uint64_t page = addr / kPageBytes;
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t n = std::min(len, kPageBytes - off);
        if (n == kPageBytes)
            map(page, PageStore::kZero);
        else if (lookup(page) != PageStore::kZero)
            std::memset(own(page, true) + off, 0, n);
        addr += n;
        len -= n;
    }
}

} // namespace bms::sim
