/**
 * @file
 * Interrupt routing: MSI-X vectors raised by devices are dispatched
 * to registered handlers (driver CQ scanners). Handlers are keyed by
 * (domain, function, vector) — the domain is the slot's bus number,
 * so two SSDs that both expose function 0 stay distinct. A
 * per-handler delivery latency models APIC delivery natively and
 * posted-interrupt injection for VMs.
 */

#ifndef BMS_HOST_INTERRUPTS_HH
#define BMS_HOST_INTERRUPTS_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "pcie/types.hh"
#include "sim/simulator.hh"

namespace bms::host {

/** The host (or guest) interrupt controller. */
class InterruptController : public sim::SimObject
{
  public:
    using Handler = std::function<void()>;

    InterruptController(sim::Simulator &sim, std::string name)
        : SimObject(sim, std::move(name))
    {}

    /**
     * Register @p handler for (@p domain, @p fn, @p vector).
     * @p delivery is the injection latency before the handler runs.
     */
    void
    registerHandler(std::uint32_t domain, pcie::FunctionId fn,
                    std::uint16_t vector, Handler handler,
                    sim::Tick delivery = sim::nanoseconds(200))
    {
        _handlers[key(domain, fn, vector)] =
            Entry{std::move(handler), delivery};
    }

    /** Remove every vector of (@p domain, @p fn). */
    void
    unregisterFunction(std::uint32_t domain, pcie::FunctionId fn)
    {
        std::uint64_t prefix = key(domain, fn, 0) >> 16;
        // BMS_LINT_ALLOW(unordered-iter): pure filter-erase — the
        // surviving handler set is identical for every visit order
        for (auto it = _handlers.begin(); it != _handlers.end();) {
            if ((it->first >> 16) == prefix)
                it = _handlers.erase(it);
            else
                ++it;
        }
    }

    /** Deliver vector @p vector raised by (@p domain, @p fn). */
    void
    raise(std::uint32_t domain, pcie::FunctionId fn, std::uint16_t vector)
    {
        auto it = _handlers.find(key(domain, fn, vector));
        if (it == _handlers.end()) {
            logWarn("spurious interrupt domain=", domain,
                    " fn=", static_cast<int>(fn), " vec=", vector);
            return;
        }
        // Schedule a copy of the handler: registration may change
        // while the interrupt is in flight.
        schedule(it->second.delivery, it->second.handler);
    }

    /**
     * Per-slot sink adapter: the root port raises (fn, vector); the
     * adapter prefixes the slot's domain.
     */
    class Domain : public pcie::InterruptSinkIf
    {
      public:
        Domain(InterruptController &ctrl, std::uint32_t domain)
            : _ctrl(ctrl), _domain(domain)
        {}

        void
        raiseInterrupt(pcie::FunctionId fn, std::uint16_t vector) override
        {
            _ctrl.raise(_domain, fn, vector);
        }

      private:
        InterruptController &_ctrl;
        std::uint32_t _domain;
    };

  private:
    struct Entry
    {
        Handler handler;
        sim::Tick delivery;
    };

    static std::uint64_t
    key(std::uint32_t domain, pcie::FunctionId fn, std::uint16_t vector)
    {
        return (static_cast<std::uint64_t>(domain) << 24) |
               (static_cast<std::uint64_t>(fn) << 16) | vector;
    }

    std::unordered_map<std::uint64_t, Entry> _handlers;
};

} // namespace bms::host

#endif // BMS_HOST_INTERRUPTS_HH
