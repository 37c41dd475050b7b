#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/check.hh"

namespace bms::sim {

EventQueue::EventQueue()
{
    Check::pushTickSource(this);
}

EventQueue::~EventQueue()
{
    Check::popTickSource(this);
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    BMS_ASSERT(when >= _now, "cannot schedule into the past: when=", when,
               " now=", _now);
    BMS_ASSERT(cb, "null event callback scheduled for tick ", when);

    std::uint32_t slot;
    if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    } else {
        BMS_ASSERT_LT(_slots.size(), kMaxSlots, "event slot space exhausted");
        slot = static_cast<std::uint32_t>(_slots.size());
        _slots.emplace_back();
    }
    _slots[slot] = std::move(cb);

    _heap.push_back(HeapEntry{when, _nextSeq++, slot});
    std::push_heap(_heap.begin(), _heap.end(), EntryLater{});
}

bool
EventQueue::runOne()
{
    if (_heap.empty())
        return false;
    HeapEntry h = _heap.front();
    std::pop_heap(_heap.begin(), _heap.end(), EntryLater{});
    _heap.pop_back();
    Callback cb = std::move(_slots[h.slot]);
    _slots[h.slot] = nullptr;
    _freeSlots.push_back(h.slot);

    BMS_ASSERT(h.when >= _now, "event popped in the past: when=", h.when,
               " now=", _now);
    _now = h.when;
    ++_executed;
    if (Check::paranoid())
        checkInvariants();
    cb();
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    while (!_heap.empty() && _heap.front().when <= limit)
        runOne();
    if (_now < limit)
        _now = limit;
}

Tick
EventQueue::runAll()
{
    while (runOne()) {
    }
    return _now;
}

void
EventQueue::checkInvariants() const
{
    // Slab accounting: every slot is either in the heap or on the free
    // list.
    BMS_ASSERT_EQ(_heap.size() + _freeSlots.size(), _slots.size(),
                  "slab accounting does not cover the heap");
    if (!_heap.empty()) {
        BMS_ASSERT(_heap.front().when >= _now,
                   "heap head scheduled in the past: when=",
                   _heap.front().when, " now=", _now);
    }
}

} // namespace bms::sim
