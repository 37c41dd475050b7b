/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled at the same tick execute in scheduling order
 * (FIFO), which keeps every experiment bit-for-bit reproducible for a
 * given seed. The queue is one 4-ary heap of 16-byte POD keys
 * (when, seq << 24 | slot), where `seq` is a monotone schedule counter;
 * callbacks live in a slab indexed by `slot`, so heap sifts move two
 * words rather than std::function objects. A 4-ary heap is half as
 * deep as a binary one, and the sifts move a hole instead of swapping
 * entries.
 *
 * A scheduled event always runs: there is no cancellation. A model
 * that must ignore a step whose reason has gone (a request that timed
 * out) fences it when the step runs, by record handle or request id.
 */

#ifndef BMS_SIM_EVENT_QUEUE_HH
#define BMS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace bms::sim {

/**
 * Priority queue of timed callbacks with deterministic same-tick
 * ordering and O(log n) schedule/pop. At most 2^24 events are pending
 * at once and 2^40 are scheduled in one queue's life; both are
 * asserted.
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
     */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(_now + delay, std::move(cb));
    }

    /** True if no pending events remain. */
    bool empty() const { return _heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return _heap.size(); }

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
     *  - the heap head is not in the past.
     * Runs after every pop under Check::paranoid(); tests call it
     * directly.
     */
    void checkInvariants() const;

  private:
    /** Low bits of a key: the slot; the bits above: the seq. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::size_t kMaxSlots = std::size_t{1} << kSlotBits;
    static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                             << (64 - kSlotBits);

    /** POD heap entry: 16 bytes, no callback, cache friendly. Keys
     *  order as seqs do, since no two events share a seq. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key; ///< seq << kSlotBits | slot

        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(key & (kMaxSlots - 1));
        }

        /** Runs before @p o: earlier tick, or the same tick and
         *  scheduled first (FIFO among same-tick events). */
        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : key < o.key;
        }
    };
    static_assert(sizeof(HeapEntry) == 16, "heap keys are two words");

    /** Fill hole @p i with @p e, moving the hole toward the root. */
    void siftUp(std::size_t i, HeapEntry e);
    /** Fill hole @p i with @p e, moving the hole toward the leaves. */
    void siftDown(std::size_t i, HeapEntry e);

    std::vector<HeapEntry> _heap;  ///< 4-ary min-heap (HeapEntry::before)
    std::vector<Callback> _slots;  ///< callback slab
    std::vector<std::uint32_t> _freeSlots;
    Tick _now = 0;
    std::uint64_t _nextSeq = 1; ///< schedule order
    std::uint64_t _executed = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_EVENT_QUEUE_HH
