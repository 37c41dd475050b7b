/**
 * @file
 * Simulator facade: owns the event queue, the root RNG, and the set
 * of named components; provides the scheduling API every model uses.
 */

#ifndef BMS_SIM_SIMULATOR_HH
#define BMS_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/page_store.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"
#include "sim/types.hh"

namespace bms::sim {

class SimObject;

/**
 * One simulated world. All components of a testbed share one
 * Simulator; experiments construct a fresh Simulator per run.
 */
class Simulator
{
  public:
    explicit Simulator(std::uint64_t seed = 1)
        : _rng(seed)
    {}

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    Tick now() const { return _queue.now(); }
    EventQueue &queue() { return _queue; }
    Rng &rng() { return _rng; }
    StatsRegistry &stats() { return _stats; }
    /** Pages behind every functional memory of this world. */
    PageStore &pages() { return _pages; }

    /** Schedule @p cb at absolute tick @p when. */
    EventId
    scheduleAt(Tick when, EventQueue::Callback cb)
    {
        return _queue.schedule(when, std::move(cb));
    }

    /** Schedule @p cb after @p delay ticks. */
    EventId
    scheduleAfter(Tick delay, EventQueue::Callback cb)
    {
        return _queue.scheduleAfter(delay, std::move(cb));
    }

    void cancel(EventId id) { _queue.cancel(id); }

    /** Run until simulated time @p limit. */
    void runUntil(Tick limit) { _queue.runUntil(limit); }

    /** Run for @p duration more simulated time. */
    void runFor(Tick duration) { _queue.runUntil(now() + duration); }

    /** Run until no events remain. */
    Tick runAll() { return _queue.runAll(); }

    /**
     * Construct a component owned by this simulator. The object lives
     * until the simulator is destroyed, so raw pointers/references
     * between same-world components are safe.
     */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        auto obj = std::make_unique<T>(std::forward<Args>(args)...);
        T *raw = obj.get();
        _objects.push_back(std::move(obj));
        return raw;
    }

  private:
    // First member, so it dies last: the objects and pending events
    // drop their page references before the store checks its count.
    PageStore _pages;
    EventQueue _queue;
    Rng _rng;
    StatsRegistry _stats;
    std::vector<std::unique_ptr<SimObject>> _objects;
};

/**
 * Base class for named simulation components. Provides convenient
 * access to the shared clock/scheduler and leveled logging.
 */
class SimObject
{
  public:
    SimObject(Simulator &sim, std::string name)
        : _sim(sim), _name(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    Simulator &sim() const { return _sim; }
    Tick now() const { return _sim.now(); }

  protected:
    EventId
    schedule(Tick delay, EventQueue::Callback cb)
    {
        return _sim.scheduleAfter(delay, std::move(cb));
    }

    /** Register a statistic under "<component name>.<stat>". */
    void
    registerStat(const std::string &stat, StatsRegistry::Provider p)
    {
        _sim.stats().add(_name + "." + stat, std::move(p));
    }

    template <typename... Parts>
    void
    logInfo(const Parts &...parts) const
    {
        logAt(LogLevel::Info, now(), _name, parts...);
    }

    template <typename... Parts>
    void
    logDebug(const Parts &...parts) const
    {
        logAt(LogLevel::Debug, now(), _name, parts...);
    }

    template <typename... Parts>
    void
    logTrace(const Parts &...parts) const
    {
        logAt(LogLevel::Trace, now(), _name, parts...);
    }

    template <typename... Parts>
    void
    logWarn(const Parts &...parts) const
    {
        logAt(LogLevel::Warn, now(), _name, parts...);
    }

  private:
    Simulator &_sim;
    std::string _name;
};

} // namespace bms::sim

#endif // BMS_SIM_SIMULATOR_HH
