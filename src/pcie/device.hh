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
#include "sim/simulator.hh"

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

/**
 * What a port keeps of the traffic it carries, one record each: a DMA
 * from the device's request until it has landed (in the port's memory,
 * or wherever the port routes it) and its done has run; an MMIO write
 * until it reaches the device.
 */
class PortRecords
{
  public:
    /** `out` is a read's destination, `in` a write's source (neither
     *  for a timing-only transfer). */
    struct Dma
    {
        std::uint64_t addr = 0;
        std::uint32_t len = 0;
        bool toHost = false; ///< device → upstream
        sim::DataOut out;
        sim::DataIn in;
        int legs = 0; ///< links still carrying it (a router's barrier)
        std::function<void()> done;
    };

    PortRecords(sim::Simulator &sim, MemoryIf &memory)
        : dmas(sim), _sim(sim), _memory(memory), _writes(sim)
    {}

    /** Land @p d in the memory at @p arrive, then finish it. */
    void
    land(sim::Tick arrive, Dma d)
    {
        const std::uint32_t h = dmas.open();
        dmas[h] = std::move(d);
        _sim.scheduleAt(arrive, [this, h] {
            if (dmas[h].out)
                _memory.read(dmas[h].addr, dmas[h].len, dmas[h].out);
            if (dmas[h].in)
                _memory.write(dmas[h].addr, dmas[h].len, dmas[h].in);
            finish(h);
        });
    }

    /** Free DMA @p h, then run its done. */
    void
    finish(std::uint32_t h)
    {
        std::function<void()> done = std::move(dmas[h].done);
        dmas.free(h);
        done();
    }

    /** At @p arrive, write @p value at @p offset of @p dev's @p fn. */
    void
    mmio(sim::Tick arrive, PcieDeviceIf &dev, FunctionId fn,
         std::uint64_t offset, std::uint64_t value)
    {
        const std::uint32_t h = _writes.open();
        _writes[h] = {&dev, fn, offset, value};
        _sim.scheduleAt(arrive, [this, h] {
            const Write w = _writes[h];
            _writes.free(h);
            w.dev->mmioWrite(w.fn, w.offset, w.value);
        });
    }

    sim::RecordPool<Dma> dmas;

  private:
    struct Write
    {
        PcieDeviceIf *dev;
        FunctionId fn;
        std::uint64_t offset, value;
    };

    sim::Simulator &_sim;
    MemoryIf &_memory;
    sim::RecordPool<Write> _writes;
};

} // namespace bms::pcie

#endif // BMS_PCIE_DEVICE_HH
