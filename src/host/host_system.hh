/**
 * @file
 * HostSystem: one physical server — memory, interrupt controller,
 * CPU cores, and PCIe slots. Mirrors the paper's testbed (2x 24-core
 * Xeon 8163, 768 GB DDR4, PCIe Gen3 slots).
 */

#ifndef BMS_HOST_HOST_SYSTEM_HH
#define BMS_HOST_HOST_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "host/cpu.hh"
#include "host/host_memory.hh"
#include "host/interrupts.hh"
#include "host/platform_profile.hh"
#include "pcie/root_port.hh"
#include "sim/simulator.hh"

namespace bms::host {

/** Static configuration of a server. */
struct HostConfig
{
    int cores = 48; ///< physical cores (HT disabled per the paper)
    PlatformProfile profile = centos7();
};

/** One bare-metal server. */
class HostSystem : public sim::SimObject
{
  public:
    using Config = HostConfig;

    HostSystem(sim::Simulator &sim, std::string name, Config cfg = Config())
        : SimObject(sim, name),
          _cfg(cfg),
          _mem(sim.pages()),
          _irq(sim, name + ".irq"),
          _cpus(cfg.cores)
    {}

    HostMemory &memory() { return _mem; }
    InterruptController &irq() { return _irq; }
    CpuSet &cpus() { return _cpus; }
    const PlatformProfile &profile() const { return _cfg.profile; }

    /** Add a PCIe Gen3 slot with @p lanes lanes. */
    pcie::RootPort &
    addSlot(int lanes)
    {
        auto domain = static_cast<std::uint32_t>(_slots.size());
        _irqDomains.push_back(
            std::make_unique<InterruptController::Domain>(_irq, domain));
        auto port = std::make_unique<pcie::RootPort>(
            sim(), name() + ".slot" + std::to_string(domain), lanes,
            _mem, *_irqDomains.back());
        port->setIrqDomain(domain);
        _slots.push_back(std::move(port));
        return *_slots.back();
    }

    pcie::RootPort &slot(std::size_t idx) { return *_slots.at(idx); }
    std::size_t slotCount() const { return _slots.size(); }

  private:
    Config _cfg;
    HostMemory _mem;
    InterruptController _irq;
    CpuSet _cpus;
    std::vector<std::unique_ptr<InterruptController::Domain>> _irqDomains;
    std::vector<std::unique_ptr<pcie::RootPort>> _slots;
};

} // namespace bms::host

#endif // BMS_HOST_HOST_SYSTEM_HH
