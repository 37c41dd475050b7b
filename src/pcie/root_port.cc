#include "pcie/root_port.hh"

#include <utility>

namespace bms::pcie {

RootPort::RootPort(sim::Simulator &sim, std::string name, int lanes,
                   MemoryIf &memory, InterruptSinkIf &irq)
    : SimObject(sim, std::move(name)),
      _link(lanes),
      _memory(memory),
      _irq(irq)
{
}

void
RootPort::attach(PcieDeviceIf &device)
{
    BMS_ASSERT(!_device, "root-port slot already occupied");
    _device = &device;
    device.attached(*this);
}

void
RootPort::hostMmioWrite(FunctionId fn, std::uint64_t offset,
                        std::uint64_t value)
{
    BMS_ASSERT(_device, "MMIO write with no device attached");
    _records.mmio(_link.down().controlArrival(now()), *_device, fn, offset,
                  value);
}

std::uint64_t
RootPort::hostMmioRead(FunctionId fn, std::uint64_t offset)
{
    BMS_ASSERT(_device, "MMIO read with no device attached");
    return _device->mmioRead(fn, offset);
}

void
RootPort::dmaRead(std::uint64_t addr, std::uint32_t len, sim::DataOut out,
                  std::function<void()> done)
{
    // Read request TLP travels upstream; completion data streams back
    // down. The downstream channel carries the payload.
    sim::Tick req = _link.up().controlArrival(now());
    _records.land(_link.down().reserve(req, len),
                  {addr, len, false, out, nullptr, 0, std::move(done)});
}

void
RootPort::dmaWrite(std::uint64_t addr, std::uint32_t len, sim::DataIn data,
                   std::function<void()> done)
{
    // Posted write: payload occupies the upstream channel.
    _records.land(_link.up().reserve(now(), len),
                  {addr, len, true, nullptr, data, 0, std::move(done)});
}

void
RootPort::msix(FunctionId fn, std::uint16_t vector)
{
    sim::Tick arrive = _link.up().controlArrival(now());
    sim().scheduleAt(arrive, [this, fn, vector] {
        _irq.raiseInterrupt(fn, vector);
    });
}

} // namespace bms::pcie
