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

EventId
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
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    s.state = SlotState::Pending;

    _heap.push_back(HeapEntry{when, _nextSeq++, slot});
    std::push_heap(_heap.begin(), _heap.end(), EntryLater{});
    ++_live;
    return makeId(s.gen, slot);
}

void
EventQueue::cancel(EventId id)
{
    auto slot = static_cast<std::uint32_t>(id);
    auto gen = static_cast<std::uint32_t>(id >> kSlotBits);
    // Ids of executed (or never-issued) events fail the generation
    // check and cancelling them is a no-op. The tombstoned entry is
    // purged when it reaches the heap head, so tombstone accounting
    // can never outgrow the heap.
    if (slot >= _slots.size())
        return;
    Slot &s = _slots[slot];
    if (s.gen != gen || s.state != SlotState::Pending)
        return;
    s.state = SlotState::Cancelled;
    s.cb = nullptr;
    ++_cancelled;
    BMS_ASSERT(_live > 0, "cancel(", id, ") with no live events");
    --_live;
}

void
EventQueue::popHead()
{
    std::pop_heap(_heap.begin(), _heap.end(), EntryLater{});
    _heap.pop_back();
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = _slots[slot];
    s.cb = nullptr;
    s.state = SlotState::Free;
    if (++s.gen == 0)
        s.gen = 1;
    _freeSlots.push_back(slot);
}

bool
EventQueue::purgeHead()
{
    while (!_heap.empty()) {
        std::uint32_t slot = _heap.front().slot;
        if (_slots[slot].state != SlotState::Cancelled)
            return true;
        releaseSlot(slot);
        popHead();
        BMS_ASSERT(_cancelled > 0, "tombstone count underflow");
        --_cancelled;
    }
    return false;
}

bool
EventQueue::runOne()
{
    if (!purgeHead())
        return false;
    HeapEntry h = _heap.front();
    popHead();
    Callback cb = std::move(_slots[h.slot].cb);
    releaseSlot(h.slot);

    BMS_ASSERT(h.when >= _now, "event popped in the past: when=", h.when,
               " now=", _now);
    _now = h.when;
    --_live;
    ++_executed;
    if (Check::paranoid())
        checkInvariants();
    cb();
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    // purgeHead() drops tombstones on the way to the head, so the
    // limit check below always sees the next *live* event; a
    // cancelled early entry can never let an event beyond @p limit
    // execute.
    while (purgeHead() && _heap.front().when <= limit)
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
    // Slab accounting: every slot is either in the heap (pending or
    // tombstoned) or on the free list.
    BMS_ASSERT_EQ(_heap.size() + _freeSlots.size(), _slots.size(),
                  "slab accounting does not cover the heap");
    BMS_ASSERT_LE(_cancelled, _heap.size(),
                  "tombstone count outgrew the heap");
    BMS_ASSERT_EQ(_heap.size() - _cancelled, _live,
                  "live accounting does not cover the heap");
    if (!_heap.empty()) {
        BMS_ASSERT(_heap.front().when >= _now,
                   "heap head scheduled in the past: when=",
                   _heap.front().when, " now=", _now);
    }
}

} // namespace bms::sim
