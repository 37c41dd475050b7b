/**
 * @file
 * Measurement plumbing of the perfbench driver. Everything here sits
 * outside the simulator and only calls its public API:
 *
 *   - Tracer: in-memory spans (name, start, end, parent, request id)
 *     recorded around the calls the benchmark makes into each layer;
 *   - Probe + TimedDevice: a BlockDeviceIf decorator that times every
 *     tenant request submit→complete in simulated time and wraps the
 *     submit and completion calls in spans;
 *   - Snapshot: public counters (StatsRegistry, event queue, drivers,
 *     CPUs, sparse memories) read before and after the timed phase.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host/block.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace perfbench {

using bms::sim::LatencyHistogram;
using bms::sim::Tick;

/** Monotonic wall clock, nanoseconds. */
inline std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Span recorder. Spans nest strictly (one thread, every span closes
 * before its parent), so each span's self time — its duration minus
 * what its children cover — is summed per span name as it closes.
 * The first kMaxSpans spans are kept for writeCsv(); later spans still
 * count in the per-name self times.
 */
class Tracer
{
  public:
    static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

    explicit Tracer(bool on) : _on(on) {}

    bool on() const { return _on; }

    /** Id of span name @p name (stable for the tracer's lifetime). */
    std::uint32_t intern(const std::string &name);

    void open(std::uint32_t name, std::uint64_t req);
    void close();

    /** Summed self time of every span called @p name (0 when none). */
    std::int64_t selfNs(const std::string &name) const;

    /** Zero the self times (timed phase starts); kept spans stay. */
    void resetTotals();

    std::uint64_t closedSpans() const { return _closed; }

    /** Write the kept spans as CSV; false on I/O error. */
    bool writeCsv(const std::string &path) const;

  private:
    struct Record
    {
        std::uint32_t name = 0;
        std::uint32_t parent = 0; ///< 1-based record index, 0 = root
        std::uint64_t req = 0;
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    struct Open
    {
        std::uint32_t record = 0; ///< 1-based, 0 = not kept
        std::uint32_t name = 0;
        std::int64_t start = 0;
        std::int64_t childNs = 0;
    };

    bool _on;
    std::vector<std::string> _names;
    std::vector<std::int64_t> _selfNs; ///< per interned name
    std::vector<Record> _records;
    std::vector<Open> _stack;
    std::uint64_t _closed = 0;
};

/** RAII span; free when tracing is off. */
class Span
{
  public:
    Span(Tracer &t, std::uint32_t name, std::uint64_t req = 0)
        : _t(t.on() ? &t : nullptr)
    {
        if (_t)
            _t->open(name, req);
    }
    ~Span()
    {
        if (_t)
            _t->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *_t;
};

/** Per-tenant tallies of the measured window. */
struct TenantTally
{
    std::uint64_t ios = 0;
    Tick lastDone = 0;
    Tick maxGap = 0; ///< longest interval between two completions
    Tick maxLatency = 0;
};

/**
 * Shared sink of every TimedDevice of one simulated world. Requests
 * count toward the timed phase while `timed` is set; their latency is
 * sampled while `measuring` is set (read-back sweeps are timed but not
 * sampled).
 */
struct Probe
{
    Probe(bms::sim::Simulator &s, Tracer &t, int tenants);

    bms::sim::Simulator &sim;
    Tracer &tracer;
    std::uint32_t submitSpan;

    bool timed = false;
    bool measuring = false;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0; ///< failed completions, any phase
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t nextReq = 1;

    /** @name Measured window (latency-sampled requests only). */
    /// @{
    LatencyHistogram readLat, writeLat, flushLat;
    std::vector<TenantTally> tenants;
    std::uint64_t windowIos = 0;
    Tick windowStart = 0;
    Tick windowEnd = 0; ///< last measured completion
    /// @}
};

/**
 * BlockDeviceIf decorator between a tenant's load generator and its
 * NVMe driver: times submit→complete, wraps driver submit in a
 * `host.submit` span and the upper layer's completion handling (which
 * re-issues) in a span named after that layer.
 */
class TimedDevice : public bms::host::BlockDeviceIf
{
  public:
    /**
     * @param queue_hint when >= 0, replaces every request's queue hint
     *        (the submitting thread's queue and CPU; the benchmark seed
     *        picks it).
     */
    TimedDevice(Probe &probe, bms::host::BlockDeviceIf &inner, int tenant,
                std::uint32_t upper_span, int queue_hint = -1);

    void submit(bms::host::BlockRequest req) override;
    std::uint64_t capacityBytes() const override
    {
        return _inner.capacityBytes();
    }

    /** Requests submitted while set are timed but not sampled. */
    void setSweeping(bool on) { _sweeping = on; }

  private:
    void completed(bms::host::BlockRequest::Op op, Tick submitted,
                   bool timed, bool measured, bool ok);

    Probe &_probe;
    bms::host::BlockDeviceIf &_inner;
    int _tenant;
    std::uint32_t _upperSpan;
    int _queueHint;
    bool _sweeping = false;
};

/**
 * Public counters at one instant. Registry stats are summed across
 * instances with the fleet's `cardN.` prefix and the per-instance
 * index folded away: `bms.vf17.fetchedSqes` → `fn.fetchedSqes`,
 * `bms.adaptor1.chipBytes` → `adaptor.chipBytes`, `bssd0.ctrl.readOps`
 * and `spare2.slot0.ctrl.readOps` → `ssd.readOps`; `bms.target.*`,
 * `bms.qos.*`, `bms.miggate.*` and `bmsc.migration.*` keep their names
 * minus the card prefix.
 */
struct Snapshot
{
    std::map<std::string, double> stats;
    std::uint64_t events = 0;
    std::uint64_t interrupts = 0;
    Tick cpuBusy = 0;
    std::uint64_t hostPages = 0;
    std::uint64_t flashPages = 0;
    Tick now = 0;

    double stat(const std::string &name) const
    {
        auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second;
    }
};

/** Registry + event-queue part of a snapshot (the rest is per world). */
void snapshotSim(bms::sim::Simulator &sim, Snapshot &out);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
