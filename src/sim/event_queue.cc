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

namespace {

/** Children per heap node. */
constexpr std::size_t kArity = 4;

} // namespace

void
EventQueue::schedule(Tick when, Callback cb)
{
    BMS_ASSERT(when >= _now, "cannot schedule into the past: when=", when,
               " now=", _now);
    BMS_ASSERT(cb, "null event callback scheduled for tick ", when);
    BMS_ASSERT_LT(_nextSeq, kMaxSeq, "event sequence space exhausted");

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

    _heap.emplace_back();
    siftUp(_heap.size() - 1, HeapEntry{when, _nextSeq++ << kSlotBits | slot});
}

void
EventQueue::siftUp(std::size_t i, HeapEntry e)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!e.before(_heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i, HeapEntry e)
{
    const std::size_t n = _heap.size();
    for (;;) {
        std::size_t first = kArity * i + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (_heap[c].before(_heap[best]))
                best = c;
        if (!_heap[best].before(e))
            break;
        _heap[i] = _heap[best];
        i = best;
    }
    _heap[i] = e;
}

bool
EventQueue::runOne()
{
    if (_heap.empty())
        return false;
    const HeapEntry h = _heap.front();
    const HeapEntry tail = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0, tail);
    const std::uint32_t slot = h.slot();
    Callback cb = std::move(_slots[slot]);
    _slots[slot] = nullptr;
    _freeSlots.push_back(slot);

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
