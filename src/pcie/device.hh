/**
 * @file
 * Interfaces between a PCIe endpoint device and its upstream port.
 *
 * A device sees the platform through PcieUpstreamIf (DMA to host
 * memory, MSI-X). The platform sees the device through PcieDeviceIf
 * (MMIO register writes, function enumeration). Both the native SSD
 * model and the BMS-Engine card implement PcieDeviceIf; the BMS-Engine
 * host adaptor additionally *implements* PcieUpstreamIf toward its
 * back-end SSDs — that symmetry is what lets the same SSD model run
 * either directly attached to the host or behind BM-Store.
 */

#ifndef BMS_PCIE_DEVICE_HH
#define BMS_PCIE_DEVICE_HH

#include <cstdint>
#include <functional>

#include "pcie/types.hh"
#include "sim/types.hh"

namespace bms::pcie {

/**
 * Services the upstream hierarchy provides to an attached device.
 * All calls are asynchronous with modeled link timing; @p done fires
 * when the transfer completes (data valid for reads / globally
 * visible for writes).
 */
class PcieUpstreamIf
{
  public:
    virtual ~PcieUpstreamIf() = default;

    /**
     * Device-initiated read of upstream memory (SQE fetch, PRP fetch,
     * write-data fetch). The data lands in @p out when the completion
     * arrives; @p out may be empty for timing-only transfers.
     */
    virtual void dmaRead(std::uint64_t addr, std::uint32_t len,
                         sim::DataOut out, std::function<void()> done) = 0;

    /**
     * Device-initiated posted write to upstream memory (read data,
     * CQE post). The data lands when the write arrives; @p data may
     * be empty for timing-only transfers.
     */
    virtual void dmaWrite(std::uint64_t addr, std::uint32_t len,
                          sim::DataIn data,
                          std::function<void()> done) = 0;

    /** Raise MSI-X @p vector on behalf of function @p fn. */
    virtual void msix(FunctionId fn, std::uint16_t vector) = 0;
};

/**
 * A PCIe endpoint as seen by the platform: per-function MMIO register
 * file plus enumeration info. Register offsets follow the NVMe
 * controller layout (doorbells etc.) and are interpreted by the
 * device implementation.
 */
class PcieDeviceIf
{
  public:
    virtual ~PcieDeviceIf() = default;

    /** Number of PCIe functions (PFs + VFs) this endpoint exposes. */
    virtual int functionCount() const = 0;

    /**
     * Posted MMIO write to function @p fn, register offset @p offset.
     * Called by the port when the write TLP arrives at the device.
     */
    virtual void mmioWrite(FunctionId fn, std::uint64_t offset,
                           std::uint64_t value) = 0;

    /** Non-posted MMIO read (init/status paths only; untimed). */
    virtual std::uint64_t mmioRead(FunctionId fn, std::uint64_t offset) = 0;

    /** Called by the port once after attach. */
    virtual void attached(PcieUpstreamIf &upstream) = 0;

    /**
     * Called by the port when the device is pulled (hot-plug), once
     * nothing is in flight. The device may drop its media; it is
     * never attached again.
     */
    virtual void detached() {}
};

} // namespace bms::pcie

#endif // BMS_PCIE_DEVICE_HH
