#include "sim/page_store.hh"

#include <algorithm>

namespace bms::sim {

PageStore::PageStore()
{
    // Unit 0 is the zero page; its one reference is never dropped.
    _unitBlocks.push_back(std::unique_ptr<UnitBlock>(new UnitBlock));
    _unitBlocks[0]->units[0] = Unit{};
    _unitBlocks[0]->refs[0] = 1;
    _units = 1;
}

PageStore::~PageStore()
{
    // Slab pages are one heap block per 16 pages and unit pages one
    // per 1,024, so a leaked reference is invisible to LeakSanitizer:
    // the store has to count it itself.
    BMS_ASSERT_EQ(_live, 0u, "pages still referenced when the store dies");
}

PageStore::Id
PageStore::alloc()
{
    Id id;
    if (!_free.empty()) {
        id = _free.back();
        _free.pop_back();
    } else {
        BMS_ASSERT_LT(_refs.size(), kFrameBit, "page store exhausted");
        id = static_cast<Id>(_refs.size()) | kFrameBit;
        if (_refs.size() % kSlabPages == 0)
            // Default-initialized: untouched pages cost no resident
            // memory until first written.
            _slabs.push_back(std::unique_ptr<Slab>(new Slab));
        _refs.push_back(0);
    }
    _refs[id & ~kFrameBit] = 1;
    addLive();
    return id;
}

PageStore::Id
PageStore::allocUnit(const Unit &unit)
{
    Id id;
    if (!_unitFree.empty()) {
        id = _unitFree.back();
        _unitFree.pop_back();
    } else {
        BMS_ASSERT_LT(_units, kFrameBit, "page store exhausted");
        id = _units++;
        if (id % kUnitBlockPages == 0)
            // Default-initialized, as a slab is.
            _unitBlocks.push_back(std::unique_ptr<UnitBlock>(new UnitBlock));
    }
    UnitBlock &b = unitBlock(id);
    b.units[id % kUnitBlockPages] = unit;
    b.refs[id % kUnitBlockPages] = 1;
    addLive();
    return id;
}

void
PageStore::expand(const Unit &unit, std::uint64_t off, std::uint64_t len,
                  std::uint8_t *dst)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(unit.data());
    while (len > 0) {
        std::uint64_t at = off % kUnitBytes;
        std::uint64_t n = std::min(len, kUnitBytes - at);
        std::memcpy(dst, bytes + at, n);
        off += n;
        dst += n;
        len -= n;
    }
}

void
PageStore::free(Id id)
{
    --_live;
    (isUnit(id) ? _unitFree : _free).push_back(id);
}

} // namespace bms::sim
