/**
 * @file
 * QoS module — paper Fig. 5.
 *
 * Each namespace has an I/O performance threshold (IOPS and/or
 * bandwidth). Commands within threshold flow straight through; a
 * command that would exceed it is placed in the namespace's Command
 * Buffer, and the Command Dispatcher releases buffered commands as
 * the token buckets refill. This is what bounds noisy neighbours in
 * the multi-VM experiments (Figs. 11/12) without touching commands
 * of well-behaved namespaces.
 */

#ifndef BMS_CORE_ENGINE_QOS_HH
#define BMS_CORE_ENGINE_QOS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "sim/simulator.hh"

namespace bms::core {

/** Per-namespace QoS thresholds; 0 means unlimited. */
struct QosLimits
{
    double iopsLimit = 0.0;
    double mbPerSecLimit = 0.0;

    bool
    unlimited() const
    {
        return iopsLimit <= 0.0 && mbPerSecLimit <= 0.0;
    }
};

/** Token-bucket QoS with per-namespace command buffers. */
class QosModule : public sim::SimObject
{
  public:
    /**
     * Command Buffer capacity per namespace (Fig. 5). The hardware
     * buffer is finite; a namespace exceeding it means the dispatcher
     * stopped draining — a modelling bug, not back-pressure.
     */
    static constexpr std::size_t kMaxBufferDepth = 64 * 1024;

    /** Key identifying a front-end namespace: (function id, nsid). */
    static std::uint32_t
    key(std::uint8_t fn, std::uint32_t nsid)
    {
        return (static_cast<std::uint32_t>(fn) << 24) | (nsid & 0xffffff);
    }

    QosModule(sim::Simulator &sim, std::string name)
        : SimObject(sim, std::move(name))
    {
        registerStat("passed", [this] { return double(_passed); });
        registerStat("buffered", [this] { return double(_buffered); });
    }

    /** Program the threshold for a namespace. */
    void setLimits(std::uint32_t ns_key, QosLimits limits);

    const QosLimits *limitsFor(std::uint32_t ns_key) const;

    /**
     * Admit a command of @p bytes for namespace @p ns_key. @p forward
     * runs immediately when within threshold, or later when the
     * dispatcher releases it from the command buffer.
     */
    void submit(std::uint32_t ns_key, std::uint64_t bytes,
                std::function<void()> forward);

    /** @name Counters (engine registers read by the I/O monitor). */
    /// @{
    std::uint64_t passedCount() const { return _passed; }
    std::uint64_t bufferedCount() const { return _buffered; }
    /// @}

    /** Commands currently waiting in a namespace's buffer. */
    std::size_t bufferDepth(std::uint32_t ns_key) const;

    /**
     * Structure-wide self-check (BMS_ASSERT on violation):
     *  - token credits are never negative;
     *  - no command buffer exceeds kMaxBufferDepth;
     *  - a non-empty buffer always has a dispatch pending;
     *  - the buffered counter covers every waiting command.
     * Runs after submit/dispatch under Check::paranoid(); tests call
     * it directly.
     */
    void checkInvariants() const;

  private:
    struct NsState
    {
        QosLimits limits;
        double opsTokens = 0.0;
        double byteTokens = 0.0;
        /** Unpaid remainder of commands larger than the bucket;
         *  refill pays this off before crediting new tokens. */
        double byteDebt = 0.0;
        sim::Tick lastRefill = 0;
        std::deque<std::pair<std::uint64_t, std::function<void()>>> buffer;
        bool dispatchScheduled = false;
    };

    void refill(NsState &ns);
    bool tryConsume(NsState &ns, std::uint64_t bytes);
    sim::Tick readyDelay(const NsState &ns, std::uint64_t bytes) const;
    void scheduleDispatch(std::uint32_t ns_key);
    void dispatch(std::uint32_t ns_key);

    std::unordered_map<std::uint32_t, NsState> _ns;
    std::uint64_t _passed = 0;
    std::uint64_t _buffered = 0;
    /** >0 while dispatch() drains a buffer (re-entrant submits). */
    int _dispatchDepth = 0;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_QOS_HH
