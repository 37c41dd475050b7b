#include "core/engine/qos.hh"

#include <algorithm>

#include "sim/check.hh"

namespace bms::core {

namespace {

/** Token-bucket burst window: 10 ms of the configured rate. */
constexpr double kBurstSec = 0.010;

/** Byte-bucket capacity for a programmed bandwidth limit. */
double
byteCapacity(const QosLimits &limits)
{
    return std::max(limits.mbPerSecLimit * 1e6 * kBurstSec, 256.0 * 1024);
}

/**
 * Upfront byte charge for one command. A command larger than the
 * bucket can never accumulate enough credit, so it is admitted when
 * the bucket is full (draining it completely); the remainder becomes
 * debt that refill pays off before crediting new tokens, keeping the
 * long-run rate exact. Without this, a low budget livelocks the
 * dispatcher on any command above rate * burst window.
 */
double
effectiveBytes(const QosLimits &limits, std::uint64_t bytes)
{
    return std::min(static_cast<double>(bytes), byteCapacity(limits));
}

} // namespace

void
QosModule::setLimits(std::uint32_t ns_key, QosLimits limits)
{
    NsState &ns = _ns[ns_key];
    ns.limits = limits;
    ns.lastRefill = now();
    // Start with a full burst allowance and a clean slate — a
    // reprogrammed threshold forgives debt from the old one.
    ns.opsTokens = limits.iopsLimit * kBurstSec;
    ns.byteTokens = limits.mbPerSecLimit * 1e6 * kBurstSec;
    ns.byteDebt = 0.0;
}

const QosLimits *
QosModule::limitsFor(std::uint32_t ns_key) const
{
    auto it = _ns.find(ns_key);
    if (it == _ns.end())
        return nullptr;
    return &it->second.limits;
}

std::size_t
QosModule::bufferDepth(std::uint32_t ns_key) const
{
    auto it = _ns.find(ns_key);
    if (it == _ns.end())
        return 0;
    return it->second.buffer.size();
}

void
QosModule::refill(NsState &ns)
{
    double dt = sim::toSec(now() - ns.lastRefill);
    ns.lastRefill = now();
    if (ns.limits.iopsLimit > 0.0) {
        ns.opsTokens = std::min(ns.opsTokens + ns.limits.iopsLimit * dt,
                                std::max(ns.limits.iopsLimit * kBurstSec,
                                         1.0));
    }
    if (ns.limits.mbPerSecLimit > 0.0) {
        double credit = ns.limits.mbPerSecLimit * 1e6 * dt;
        double paid = std::min(ns.byteDebt, credit);
        ns.byteDebt -= paid;
        ns.byteTokens = std::min(ns.byteTokens + credit - paid,
                                 byteCapacity(ns.limits));
    }
}

bool
QosModule::tryConsume(NsState &ns, std::uint64_t bytes)
{
    bool need_ops = ns.limits.iopsLimit > 0.0;
    bool need_bytes = ns.limits.mbPerSecLimit > 0.0;
    double eff = effectiveBytes(ns.limits, bytes);
    if (need_ops && ns.opsTokens < 1.0)
        return false;
    if (need_bytes && ns.byteTokens < eff)
        return false;
    if (need_ops)
        ns.opsTokens -= 1.0;
    if (need_bytes) {
        ns.byteTokens -= eff;
        ns.byteDebt += static_cast<double>(bytes) - eff;
    }
    return true;
}

sim::Tick
QosModule::readyDelay(const NsState &ns, std::uint64_t bytes) const
{
    double wait_sec = 0.0;
    if (ns.limits.iopsLimit > 0.0 && ns.opsTokens < 1.0) {
        wait_sec = std::max(wait_sec,
                            (1.0 - ns.opsTokens) / ns.limits.iopsLimit);
    }
    if (ns.limits.mbPerSecLimit > 0.0) {
        double rate = ns.limits.mbPerSecLimit * 1e6;
        // Refill pays standing debt before crediting new tokens.
        double deficit = ns.byteDebt +
                         effectiveBytes(ns.limits, bytes) - ns.byteTokens;
        if (deficit > 0.0)
            wait_sec = std::max(wait_sec, deficit / rate);
    }
    return static_cast<sim::Tick>(wait_sec * 1e9) + 1;
}

void
QosModule::submit(std::uint32_t ns_key, std::uint64_t bytes,
                  std::function<void()> forward)
{
    auto it = _ns.find(ns_key);
    if (it == _ns.end() || it->second.limits.unlimited()) {
        // No threshold programmed: pass through (Fig. 5 fast path).
        ++_passed;
        forward();
        return;
    }
    NsState &ns = it->second;
    refill(ns);
    if (ns.buffer.empty() && tryConsume(ns, bytes)) {
        ++_passed;
        forward();
        return;
    }
    // Threshold reached: into the command buffer.
    BMS_ASSERT_LT(ns.buffer.size(), kMaxBufferDepth,
                  "command buffer of namespace key ", ns_key,
                  " overflowed — dispatcher stalled?");
    ++_buffered;
    ns.buffer.emplace_back(bytes, std::move(forward));
    scheduleDispatch(ns_key);
    if (sim::Check::paranoid())
        checkInvariants();
}

void
QosModule::scheduleDispatch(std::uint32_t ns_key)
{
    NsState &ns = _ns[ns_key];
    if (ns.dispatchScheduled || ns.buffer.empty())
        return;
    ns.dispatchScheduled = true;
    sim::Tick delay = readyDelay(ns, ns.buffer.front().first);
    schedule(delay, [this, ns_key] { dispatch(ns_key); });
}

void
QosModule::dispatch(std::uint32_t ns_key)
{
    NsState &ns = _ns[ns_key];
    ns.dispatchScheduled = false;
    refill(ns);
    ++_dispatchDepth;
    while (!ns.buffer.empty() && tryConsume(ns, ns.buffer.front().first)) {
        auto forward = std::move(ns.buffer.front().second);
        ns.buffer.pop_front();
        forward();
    }
    --_dispatchDepth;
    scheduleDispatch(ns_key);
    if (sim::Check::paranoid())
        checkInvariants();
}

void
QosModule::checkInvariants() const
{
    sim::ScopedCheckComponent guard(name());
    std::uint64_t waiting = 0;
    // BMS_LINT_ALLOW(unordered-iter): read-only invariant sweep —
    // asserts per entry, accumulates a commutative sum, no order leak
    for (const auto &[key, ns] : _ns) {
        // Token credits are clamped at zero by tryConsume; a negative
        // balance means a command was forwarded without paying.
        BMS_ASSERT(ns.opsTokens >= 0.0, "negative IOPS credit ",
                   ns.opsTokens, " for namespace key ", key);
        BMS_ASSERT(ns.byteTokens >= 0.0, "negative byte credit ",
                   ns.byteTokens, " for namespace key ", key);
        BMS_ASSERT(ns.byteDebt >= 0.0, "negative byte debt ",
                   ns.byteDebt, " for namespace key ", key);
        BMS_ASSERT_LE(ns.buffer.size(), kMaxBufferDepth,
                      "command buffer over capacity for namespace key ",
                      key);
        // Buffered commands must always have a dispatch on the way,
        // except transiently while dispatch() itself is draining.
        if (_dispatchDepth == 0 && !ns.buffer.empty()) {
            BMS_ASSERT(ns.dispatchScheduled,
                       "namespace key ", key, " has ", ns.buffer.size(),
                       " buffered commands but no dispatch scheduled");
        }
        waiting += ns.buffer.size();
    }
    // _buffered counts buffer admissions cumulatively; everything
    // still waiting must be covered by it.
    BMS_ASSERT_LE(waiting, _buffered,
                  "more commands waiting than were ever buffered");
}

} // namespace bms::core
