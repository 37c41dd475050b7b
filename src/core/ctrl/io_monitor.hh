/**
 * @file
 * I/O monitor — BMS-Controller module that periodically samples the
 * BMS-Engine's I/O counting registers over the AXI bus and derives
 * per-function rates (paper §IV-D). Cloud operators read these
 * through the out-of-band management path.
 */

#ifndef BMS_CORE_CTRL_IO_MONITOR_HH
#define BMS_CORE_CTRL_IO_MONITOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/engine/bms_engine.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Periodic sampler of engine I/O counters. */
class IoMonitor : public sim::SimObject
{
  public:
    /** One function's I/O state at a sample instant + derived rates. */
    struct FnSample
    {
        std::uint64_t readOps = 0;
        std::uint64_t writeOps = 0;
        std::uint64_t readBytes = 0;
        std::uint64_t writeBytes = 0;
        double readIops = 0.0;
        double writeIops = 0.0;
        double readMbps = 0.0;
        double writeMbps = 0.0;
        /** @name Multi-queue / arbitration state (paper §IV-E). */
        /// @{
        std::uint16_t activeSqs = 0;     ///< valid IO SQs right now
        std::uint32_t maxSqBacklog = 0;  ///< deepest un-fetched SQ depth
        std::uint64_t arbRounds = 0;     ///< arbitration passes
        std::uint64_t fetchBatches = 0;  ///< coalesced SQE fetch DMAs
        std::uint64_t fetchedSqes = 0;   ///< SQEs through the arbiter
        std::uint64_t doorbellsCoalesced = 0; ///< rings batched away
        /// @}
    };

    /** One back-end slot's adaptor counters + derived rates. */
    struct SlotSample
    {
        std::uint64_t completedIos = 0;
        std::uint64_t routedBytes = 0;
        double iops = 0.0;
        double mbps = 0.0;
    };

    IoMonitor(sim::Simulator &sim, std::string name, BmsEngine &engine,
              sim::Tick period = sim::milliseconds(100))
        : SimObject(sim, std::move(name)), _engine(engine), _period(period)
    {
        _last.resize(
            static_cast<std::size_t>(engine.config().totalFunctions()));
        _current.resize(_last.size());
        _slotLast.resize(static_cast<std::size_t>(engine.ssdSlots()));
        _slotCurrent.resize(_slotLast.size());
    }

    /** Start periodic sampling. */
    void
    start()
    {
        if (_running)
            return;
        _running = true;
        sample();
    }

    void stop() { _running = false; }

    /** Latest sample (rates over the last completed period). */
    const FnSample &current(pcie::FunctionId fn) const
    {
        return _current.at(fn);
    }

    /** Latest per-slot sample (zeros for an out-of-range slot). */
    SlotSample
    slotSample(int slot) const
    {
        if (slot < 0 ||
            static_cast<std::size_t>(slot) >= _slotCurrent.size()) {
            return SlotSample{};
        }
        return _slotCurrent[static_cast<std::size_t>(slot)];
    }

    /** Back-end load on @p slot over the last period (MB/s). */
    double slotMbps(int slot) const { return slotSample(slot).mbps; }

    std::uint64_t samplesTaken() const { return _samples; }

    /** @name Per-chunk access heat (tiering policy input). */
    /// @{
    /**
     * Decayed access rate of one logical chunk of (fn, nsid) in MB/s
     * (EMA over sampling periods; zero for never-touched chunks).
     */
    double
    chunkHeatMbps(pcie::FunctionId fn, std::uint32_t nsid,
                  std::uint32_t chunk) const
    {
        auto it = _heat.find(TargetController::heatKey(
            QosModule::key(fn, nsid), chunk));
        return it == _heat.end() ? 0.0 : it->second;
    }
    /// @}

  private:
    struct Raw
    {
        std::uint64_t readOps = 0, writeOps = 0;
        std::uint64_t readBytes = 0, writeBytes = 0;
    };

    void
    sample()
    {
        if (!_running)
            return;
        // AXI register reads; per-function cost is negligible at the
        // 100 ms sampling period, so modeled as instantaneous.
        double period_sec = sim::toSec(_period);
        for (std::size_t i = 0; i < _last.size(); ++i) {
            const auto &ctrl =
                _engine.function(static_cast<pcie::FunctionId>(i));
            Raw raw{ctrl.readOps(), ctrl.writeOps(), ctrl.readBytes(),
                    ctrl.writeBytes()};
            FnSample &s = _current[i];
            s.readOps = raw.readOps;
            s.writeOps = raw.writeOps;
            s.readBytes = raw.readBytes;
            s.writeBytes = raw.writeBytes;
            s.activeSqs = ctrl.ioSqCount();
            s.maxSqBacklog = ctrl.maxSqBacklog();
            s.arbRounds = ctrl.arbRounds();
            s.fetchBatches = ctrl.fetchBatches();
            s.fetchedSqes = ctrl.fetchedSqes();
            s.doorbellsCoalesced = ctrl.doorbellsCoalesced();
            if (_samples > 0 && period_sec > 0.0) {
                s.readIops = static_cast<double>(raw.readOps -
                                                 _last[i].readOps) /
                             period_sec;
                s.writeIops = static_cast<double>(raw.writeOps -
                                                  _last[i].writeOps) /
                              period_sec;
                s.readMbps = static_cast<double>(raw.readBytes -
                                                 _last[i].readBytes) /
                             1e6 / period_sec;
                s.writeMbps = static_cast<double>(raw.writeBytes -
                                                  _last[i].writeBytes) /
                              1e6 / period_sec;
            }
            _last[i] = raw;
        }
        for (std::size_t s = 0; s < _slotLast.size(); ++s) {
            HostAdaptor &ad = _engine.adaptor(static_cast<int>(s));
            SlotRaw raw{ad.completedIos(), ad.routedToHostBytes()};
            SlotSample &cur = _slotCurrent[s];
            cur.completedIos = raw.ios;
            cur.routedBytes = raw.bytes;
            if (_samples > 0 && period_sec > 0.0) {
                cur.iops = static_cast<double>(raw.ios -
                                               _slotLast[s].ios) /
                           period_sec;
                cur.mbps = static_cast<double>(raw.bytes -
                                               _slotLast[s].bytes) /
                           1e6 / period_sec;
            }
            _slotLast[s] = raw;
        }
        // Per-chunk heat: fold this period's translate-time byte
        // counts into an EMA so a burst cools off over a few periods
        // instead of instantly (hysteresis for the tiering policy).
        if (period_sec > 0.0) {
            auto delta = _engine.targetController().drainHeat();
            // BMS_LINT_ALLOW(unordered-iter): per-key EMA fold —
            // entries are updated/erased independently, so the final
            // map state is identical for every visit order
            for (auto it = _heat.begin(); it != _heat.end();) {
                auto d = delta.find(it->first);
                double inst = d == delta.end()
                                  ? 0.0
                                  : static_cast<double>(d->second) / 1e6 /
                                        period_sec;
                if (d != delta.end())
                    delta.erase(d);
                it->second = kHeatDecay * it->second +
                             (1.0 - kHeatDecay) * inst;
                if (it->second < kHeatEpsilonMbps)
                    it = _heat.erase(it);
                else
                    ++it;
            }
            for (const auto &[key, bytes] : delta) {
                double inst =
                    static_cast<double>(bytes) / 1e6 / period_sec;
                double ema = (1.0 - kHeatDecay) * inst;
                if (ema >= kHeatEpsilonMbps)
                    _heat.emplace(key, ema);
            }
        }
        ++_samples;
        schedule(_period, [this] { sample(); });
    }

    struct SlotRaw
    {
        std::uint64_t ios = 0;
        std::uint64_t bytes = 0;
    };

    static constexpr double kHeatDecay = 0.7;
    static constexpr double kHeatEpsilonMbps = 0.01;

    BmsEngine &_engine;
    sim::Tick _period;
    bool _running = false;
    std::uint64_t _samples = 0;
    std::vector<Raw> _last;
    std::vector<FnSample> _current;
    std::vector<SlotRaw> _slotLast;
    std::vector<SlotSample> _slotCurrent;
    /** heatKey → decayed MB/s. */
    std::unordered_map<std::uint64_t, double> _heat;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_IO_MONITOR_HH
