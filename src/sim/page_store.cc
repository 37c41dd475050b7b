#include "sim/page_store.hh"

#include <cstring>
#include <limits>

#include "sim/check.hh"

namespace bms::sim {

PageStore::PageStore()
{
    // Page 0 of the first slab is the zero page.
    _slabs.push_back(std::unique_ptr<Slab>(new Slab));
    std::memset(data(kZero), 0, kPageBytes);
    _refs.push_back(1);
}

PageStore::~PageStore()
{
    // Slab pages are one heap block per 16 pages, so a leaked
    // reference is invisible to LeakSanitizer: the store has to count
    // it itself.
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
        BMS_ASSERT_LT(_refs.size(), std::numeric_limits<Id>::max(),
                      "page store exhausted");
        id = static_cast<Id>(_refs.size());
        if (id % kSlabPages == 0)
            // Default-initialized: untouched pages cost no resident
            // memory until first written.
            _slabs.push_back(std::unique_ptr<Slab>(new Slab));
        _refs.push_back(0);
    }
    _refs[id] = 1;
    ++_live;
    return id;
}

void
PageStore::free(Id id)
{
    --_live;
    _free.push_back(id);
}

} // namespace bms::sim
