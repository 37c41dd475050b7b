/**
 * @file
 * Bounded operation trace for the simulation fuzzer.
 *
 * Every oracle I/O, fault-window transition, and control-plane
 * operation appends one fixed-size entry to a ring: its tick, a static
 * label, the oracle that recorded it and up to three integers. Nothing
 * is formatted until dump(), so recording allocates nothing. When the
 * oracle (or any invariant) trips, the ring holds the last N events
 * leading up to the failure — enough context to read the interleaving
 * that broke, without unbounded memory during long seed sweeps.
 */

#ifndef BMS_FUZZ_OP_LOG_HH
#define BMS_FUZZ_OP_LOG_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.hh"

namespace bms::sim {
class SimObject;
}

namespace bms::fuzz {

/** Fixed-capacity ring of the most recent fuzzer events. */
class OpLog
{
  public:
    explicit OpLog(std::size_t capacity = 256);

    /**
     * Append one event (overwrites the oldest once full). @p label must
     * outlive the log (a string literal); each `{}` in it is replaced
     * by the next of @p a, @p b, @p c when dumped. A non-null @p who
     * (the recording oracle) prefixes the line with its name, so it
     * must outlive the log's last dump.
     */
    void record(sim::Tick tick, const sim::SimObject *who,
                const char *label, std::uint64_t a = 0,
                std::uint64_t b = 0, std::uint64_t c = 0);

    /** Print the retained events, oldest first, one line each. */
    void dump(std::ostream &os) const;

    /** Total events ever recorded (not just retained). */
    std::size_t recorded() const { return _total; }

    std::size_t capacity() const { return _ring.size(); }

  private:
    struct Entry
    {
        sim::Tick tick = 0;
        const sim::SimObject *who = nullptr;
        const char *label = "";
        std::uint64_t args[3] = {};
    };

    std::vector<Entry> _ring;
    std::size_t _next = 0;
    std::size_t _total = 0;
};

} // namespace bms::fuzz

#endif // BMS_FUZZ_OP_LOG_HH
