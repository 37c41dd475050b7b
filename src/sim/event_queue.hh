/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled at the same tick execute in scheduling order
 * (FIFO), which keeps every experiment bit-for-bit reproducible for a
 * given seed. The queue is one binary heap of POD (when, seq, slot)
 * entries, where `seq` is a monotone schedule counter; callbacks live
 * in a slab indexed by `slot`, so heap sifts move 24-byte entries
 * rather than std::function objects.
 *
 * Cancellation tombstones the slab slot; the entry is purged when it
 * reaches the heap head, so cancelled bookkeeping is always bounded
 * by the heap contents (checkInvariants() enforces the accounting).
 * Slots are reused, so every EventId carries the slot's generation:
 * a stale id can never cancel the event that took its slot over.
 */

#ifndef BMS_SIM_EVENT_QUEUE_HH
#define BMS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace bms::sim {

/** Handle for a scheduled event, usable with EventQueue::cancel(). */
using EventId = std::uint64_t;

/** Id returned for events that were not actually scheduled. */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Priority queue of timed callbacks with deterministic same-tick
 * ordering, O(log n) schedule/pop, and O(1) cancellation.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= now()
     * @return id usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleAfter(Tick delay, Callback cb)
    {
        return schedule(_now + delay, std::move(cb));
    }

    /**
     * Cancel a pending event. Cancelling an already-executed or
     * unknown id is a harmless no-op.
     */
    void cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return _live == 0; }

    /** Number of runnable (not cancelled) pending events. */
    std::size_t size() const { return _live; }

    /**
     * Pop and execute the next event.
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until simulated time would exceed @p limit. Events
     * scheduled exactly at @p limit do run. Time advances to @p limit
     * even if the queue drains earlier.
     */
    void runUntil(Tick limit);

    /** Run until the queue is empty. @return final simulated time. */
    Tick runAll();

    /** Total number of events executed since construction. */
    std::uint64_t executedCount() const { return _executed; }

    /**
     * Structure-wide self-check (BMS_ASSERT on violation):
     *  - slab accounting: heap + free list covers the slab;
     *  - tombstones never outnumber the heap entries, and every other
     *    heap entry is live, so cancel bookkeeping cannot grow
     *    unboundedly;
     *  - the heap head is not in the past.
     * Runs after every pop under Check::paranoid(); tests call it
     * directly.
     */
    void checkInvariants() const;

  private:
    /** EventId layout: generation(32) | slot(32). Generations start
     *  at 1, so no issued id equals kInvalidEventId. */
    static constexpr unsigned kSlotBits = 32;
    static constexpr std::size_t kMaxSlots = std::size_t{1} << kSlotBits;

    enum class SlotState : std::uint8_t
    {
        Free,
        Pending,
        Cancelled,
    };

    /** POD heap entry: 24 bytes, no callback, cache friendly. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Min-heap comparator: earliest (when, seq) at the front. */
    struct EntryLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq; // FIFO among same-tick events
        }
    };

    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
        SlotState state = SlotState::Free;
    };

    static EventId
    makeId(std::uint32_t gen, std::uint32_t slot)
    {
        return (static_cast<EventId>(gen) << kSlotBits) | slot;
    }

    void popHead();
    void releaseSlot(std::uint32_t slot);
    /**
     * Drop tombstoned entries sitting at the heap head.
     * @return false if no runnable event remains.
     */
    bool purgeHead();

    std::vector<HeapEntry> _heap; ///< binary heap (EntryLater)
    std::vector<Slot> _slots;     ///< callback slab
    std::vector<std::uint32_t> _freeSlots;
    std::size_t _cancelled = 0; ///< tombstones still in `_heap`
    Tick _now = 0;
    std::uint64_t _nextSeq = 1; ///< schedule order
    std::size_t _live = 0;
    std::uint64_t _executed = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_EVENT_QUEUE_HH
