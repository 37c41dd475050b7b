/**
 * @file
 * Host root port: one PCIe slot of the host, binding a link, the host
 * memory, and the host interrupt controller to an endpoint device.
 */

#ifndef BMS_PCIE_ROOT_PORT_HH
#define BMS_PCIE_ROOT_PORT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "pcie/device.hh"
#include "pcie/link.hh"
#include "pcie/types.hh"
#include "sim/simulator.hh"

namespace bms::pcie {

/**
 * A root-complex port. Implements PcieUpstreamIf for the attached
 * device using the host's memory and interrupt sink, and offers the
 * host-side MMIO entry points used by drivers. Each DMA and each host
 * MMIO write is one record (PortRecords) until it lands.
 */
class RootPort : public sim::SimObject, public PcieUpstreamIf
{
  public:
    /**
     * @param sim simulation world
     * @param name component name for logging
     * @param lanes Gen3 lane count of the slot
     * @param memory host physical memory (functional)
     * @param irq host interrupt controller
     */
    RootPort(sim::Simulator &sim, std::string name, int lanes,
             MemoryIf &memory, InterruptSinkIf &irq);

    /** Plug @p device into this slot. */
    void attach(PcieDeviceIf &device);

    PcieDeviceIf *device() const { return _device; }
    PcieLink &link() { return _link; }

    /**
     * Interrupt domain of this slot (the "bus" part of a BDF):
     * drivers key their MSI-X registrations with it so function ids
     * only need to be unique per slot.
     */
    void setIrqDomain(std::uint32_t d) { _irqDomain = d; }
    std::uint32_t irqDomain() const { return _irqDomain; }

    /**
     * Host-initiated posted MMIO write (doorbell ring). The device
     * observes the write after the downstream link delay.
     */
    void hostMmioWrite(FunctionId fn, std::uint64_t offset,
                       std::uint64_t value);

    /** Host-initiated MMIO read; functional-only (init paths). */
    std::uint64_t hostMmioRead(FunctionId fn, std::uint64_t offset);

    /** @name PcieUpstreamIf (device-initiated traffic) */
    /// @{
    void dmaRead(std::uint64_t addr, std::uint32_t len, sim::DataOut out,
                 std::function<void()> done) override;
    void dmaWrite(std::uint64_t addr, std::uint32_t len, sim::DataIn data,
                  std::function<void()> done) override;
    void msix(FunctionId fn, std::uint16_t vector) override;
    /// @}

  private:
    PcieLink _link;
    MemoryIf &_memory;
    InterruptSinkIf &_irq;
    PcieDeviceIf *_device = nullptr;
    std::uint32_t _irqDomain = 0;
    PortRecords _records{sim(), _memory};
};

} // namespace bms::pcie

#endif // BMS_PCIE_ROOT_PORT_HH
