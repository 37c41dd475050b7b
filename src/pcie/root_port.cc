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
    sim::Tick arrive = _link.down().controlArrival(now());
    sim().scheduleAt(arrive, [this, fn, offset, value] {
        _device->mmioWrite(fn, offset, value);
    });
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
    sim::Tick arrive = _link.down().reserve(req, len);
    sim().scheduleAt(arrive, [this, addr, len, out, done = std::move(done)] {
        if (out)
            _memory.read(addr, len, out);
        done();
    });
}

void
RootPort::dmaWrite(std::uint64_t addr, std::uint32_t len, sim::DataIn data,
                   std::function<void()> done)
{
    // Posted write: payload occupies the upstream channel.
    sim::Tick arrive = _link.up().reserve(now(), len);
    sim().scheduleAt(arrive, [this, addr, len, data, done = std::move(done)] {
        if (data)
            _memory.write(addr, len, data);
        done();
    });
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
