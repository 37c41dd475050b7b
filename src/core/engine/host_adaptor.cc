#include "core/engine/host_adaptor.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/engine/global_prp.hh"
#include "sim/check.hh"

namespace bms::core {

using nvme::Cqe;
using nvme::Sqe;

namespace {

/** Admin ring entries; the ring holds one command fewer. */
constexpr std::uint16_t kAdminEntries = 32;
/** Back-end commands in flight per SSD; the IO ring has one entry
 *  more, since a ring of N entries holds N - 1 commands. */
constexpr std::uint16_t kBackendCommands = 1024;
constexpr std::uint16_t kIoEntries = kBackendCommands + 1;

/** @name Layout of an adaptor's chip block. */
/// @{
constexpr std::uint64_t kIdentifyPage = 0;
constexpr std::uint64_t kAdminSq = kIdentifyPage + nvme::kPageSize;
constexpr std::uint64_t kAdminCq = kAdminSq + kAdminEntries * sizeof(Sqe);
constexpr std::uint64_t kIoSq = kAdminCq + kAdminEntries * sizeof(Cqe);
constexpr std::uint64_t kIoCq = kIoSq + kIoEntries * sizeof(Sqe);
constexpr std::uint64_t kBlockBytes = kIoCq + kIoEntries * sizeof(Cqe);
/// @}

} // namespace

HostAdaptor::HostAdaptor(sim::Simulator &sim, std::string name,
                         std::uint8_t ssd_slot, ChipMemory &chip,
                         const EngineConfig &cfg,
                         sim::Tick *shared_dram_busy,
                         pcie::PcieLink *iface_link)
    : SimObject(sim, std::move(name)),
      _slot(ssd_slot),
      _chip(chip),
      _cfg(cfg),
      _backLink(EngineConfig::kBackendLanes),
      _ifaceLink(iface_link),
      _block(chip.alloc(kBlockBytes, nvme::kPageSize)),
      _admin(chip, 0, kAdminEntries, _block + kAdminSq, _block + kAdminCq),
      _io(chip, 1, kIoEntries, _block + kIoSq, _block + kIoCq)
{
    if (shared_dram_busy)
        _dramBusy = shared_dram_busy;
    registerStat("routedHostBytes",
                 [this] { return double(_routedHostBytes); });
    registerStat("chipBytes", [this] { return double(_chipBytes); });
    registerStat("completedIos",
                 [this] { return double(_completedIos); });
    registerStat("inflight", [this] { return double(inflight()); });
}

void
HostAdaptor::attachSsd(pcie::PcieDeviceIf &ssd)
{
    BMS_ASSERT(!_ssd, "back-end slot ", int(_slot),
               " already occupied");
    _ssd = &ssd;
    ssd.attached(*this);
}

void
HostAdaptor::detachSsd()
{
    BMS_ASSERT(_ssd, "detach from empty back-end slot ", int(_slot));
    BMS_ASSERT_EQ(inflight(), 0u, "detach with I/O in flight");
    _ssd->detached();
    _ssd = nullptr;
    _ready = false;
}

void
HostAdaptor::ssdMmio(nvme::RegWrite w)
{
    BMS_ASSERT(_ssd, "MMIO write to empty back-end slot");
    _records.mmio(_backLink.down().controlArrival(now()), *_ssd, 0, w.offset,
                  w.value);
}

void
HostAdaptor::ssdCqHead(nvme::RegWrite w)
{
    BMS_ASSERT(_ssd, "MMIO write to empty back-end slot");
    _ssd->mmioWrite(0, w.offset, w.value);
}

void
HostAdaptor::init(std::function<void()> ready)
{
    BMS_ASSERT(_ssd, "bring-up with no SSD in slot");
    // The same block every bring-up, emptied: a hot-plugged SSD's CQs
    // start with no stale phase bits, and chip memory does not grow
    // per replacement.
    _chip.release(_block, kBlockBytes);
    _admin.reset();
    _io.reset();
    for (const nvme::RegWrite &w : _admin.enable())
        ssdMmio(w);

    // Identify namespace 1 → capacity, then create the IO queues.
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::Identify);
    id.nsid = 1;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = _block + kIdentifyPage;
    adminCommand(id, [this, ready = std::move(ready)](const Cqe &cqe) {
        BMS_ASSERT(cqe.ok(), "back-end identify failed");
        std::uint8_t raw[8];
        _chip.read(_block + kIdentifyPage, 8, raw);
        std::uint64_t nsze;
        std::memcpy(&nsze, raw, 8);
        _capacity = nsze * nvme::kBlockSize;

        adminCommand(_io.createCq(), [this, ready](const Cqe &c1) {
            BMS_ASSERT(c1.ok(), "back-end CreateIoCq failed");
            adminCommand(_io.createSq(), [this, ready](const Cqe &c2) {
                BMS_ASSERT(c2.ok(), "back-end CreateIoSq failed");
                _ready = true;
                logInfo("back-end SSD ready, capacity ",
                        _capacity / sim::kGiB, " GiB");
                ready();
            });
        });
    });
}

void
HostAdaptor::submitIo(const Sqe &sqe, CqeHandler done)
{
    BMS_ASSERT(_ready, "I/O submitted before back-end bring-up");
    push(_io, sqe, std::move(done));
}

void
HostAdaptor::adminCommand(const Sqe &sqe, CqeHandler done)
{
    push(_admin, sqe, std::move(done));
}

void
HostAdaptor::push(Ring &ring, const Sqe &sqe, CqeHandler done)
{
    if (std::optional<std::uint16_t> cid = ring.admit({sqe, std::move(done)}))
        issue(ring, *cid);
}

void
HostAdaptor::issue(Ring &ring, std::uint16_t cid)
{
    ssdMmio(ring.push(ring[cid].sqe, cid));
}

void
HostAdaptor::msix(pcie::FunctionId fn, std::uint16_t vector)
{
    BMS_ASSERT_EQ(fn, 0, "back-end SSD is single-function");
    sim::Tick arrive = _backLink.up().controlArrival(now());
    sim().scheduleAt(arrive, [this, vector] {
        scanCq(vector == 0 ? _admin : _io);
    });
}

void
HostAdaptor::scanCq(Ring &ring)
{
    bool any = false;
    while (std::optional<Cqe> cqe = ring.pop()) {
        any = true;
        ring.complete(
            cqe->cid,
            [&](nvme::Command cmd) {
                if (&ring == &_io)
                    ++_completedIos;
                if (cmd.done)
                    cmd.done(*cqe);
            },
            [&](std::uint16_t next) { issue(ring, next); });
    }
    if (any)
        ssdCqHead(ring.cqDoorbell());
    checkDrained();
}

void
HostAdaptor::whenDrained(std::function<void()> cb)
{
    if (inflight() == 0) {
        cb();
        return;
    }
    _drainWaiters.push_back(std::move(cb));
}

void
HostAdaptor::checkDrained()
{
    if (inflight() != 0 || _drainWaiters.empty())
        return;
    auto waiters = std::move(_drainWaiters);
    _drainWaiters.clear();
    for (auto &w : waiters)
        w();
}

sim::Tick
HostAdaptor::reserve(bool down, sim::Tick start, std::uint64_t bytes)
{
    auto channel = [down](pcie::PcieLink &l) -> pcie::LinkChannel & {
        return down ? l.down() : l.up();
    };
    sim::Tick fin = channel(_backLink).reserve(start, bytes);
    if (_ifaceLink)
        fin = std::max(fin, channel(*_ifaceLink).reserve(start, bytes));
    return fin;
}

void
HostAdaptor::dmaRead(std::uint64_t addr, std::uint32_t len,
                     sim::DataOut out, std::function<void()> done)
{
    route(Dma{addr, len, false, out, nullptr, 0, std::move(done)});
}

void
HostAdaptor::dmaWrite(std::uint64_t addr, std::uint32_t len,
                      sim::DataIn data, std::function<void()> done)
{
    route(Dma{addr, len, true, nullptr, data, 0, std::move(done)});
}

void
HostAdaptor::route(Dma dma)
{
    const std::uint64_t tagged = dma.addr;
    dma.addr = GlobalPrp::originalAddr(tagged);
    if (ChipMemory::contains(dma.addr)) {
        // Reads: command fetch, PRP-list fetch, or a migration
        // segment's write data. Writes: a CQE post into the adaptor's
        // completion ring, or a migration segment's read data landing
        // in its staging buffer. All served from chip memory.
        _chipBytes += dma.len;
        const std::uint32_t len = dma.len;
        _records.land(
            dma.toHost
                ? reserve(false, now(), len) + EngineConfig::kChipMemLatency
                : reserve(true, now() + EngineConfig::kChipMemLatency, len),
            std::move(dma));
        return;
    }
    BMS_ASSERT(_hostUp, "engine not attached to host");
    const Handle h = _records.dmas.open();
    Dma &d = _records.dmas[h] = std::move(dma);
    if (sim::Check::paranoid())
        GlobalPrp::checkInvariants(tagged);
    // The function id recovered from the TLP address selects the host
    // PF/VF. The host root port routes by address in this model, so
    // the id's role here is validation/accounting — exactly the
    // "retrieve the function id and route the request" step of §IV-C.
    [[maybe_unused]] pcie::FunctionId fn = GlobalPrp::functionOf(tagged);
    _routedHostBytes += d.len;

    if (_cfg.zeroCopy) {
        // Cut-through: the back-end link and the host link stream in
        // parallel; completion when both have carried the payload.
        sim::Tick back_fin =
            d.toHost
                ? reserve(false, now(), d.len)
                : reserve(true, now() + EngineConfig::kDmaRouteDelay, d.len);
        d.legs = 2;
        sim().scheduleAt(back_fin, [this, h] { legDone(h); });
        schedule(EngineConfig::kDmaRouteDelay, [this, h] { hostLeg(h); });
        return;
    }

    // Store-and-forward ablation: stage the payload in engine DRAM.
    if (d.toHost) {
        // SSD → back link → DRAM → host link.
        d.legs = 1;
        sim::Tick staged = stageInDram(reserve(false, now(), d.len), d.len);
        sim().scheduleAt(staged, [this, h] { hostLeg(h); });
    } else {
        // Host link → DRAM → back link → SSD.
        _hostUp->dmaRead(d.addr, d.len, d.out, [this, h] {
            const std::uint32_t len = _records.dmas[h].len;
            sim::Tick fin = reserve(true, stageInDram(now(), len), len);
            sim().scheduleAt(fin, [this, h] { _records.finish(h); });
        });
    }
}

void
HostAdaptor::hostLeg(Handle h)
{
    const Dma &d = _records.dmas[h];
    if (d.toHost)
        _hostUp->dmaWrite(d.addr, d.len, d.in, [this, h] { legDone(h); });
    else
        _hostUp->dmaRead(d.addr, d.len, d.out, [this, h] { legDone(h); });
}

void
HostAdaptor::legDone(Handle h)
{
    if (--_records.dmas[h].legs == 0)
        _records.finish(h);
}

sim::Tick
HostAdaptor::stageInDram(sim::Tick start, std::uint32_t len)
{
    sim::Tick s = start > *_dramBusy ? start : *_dramBusy;
    *_dramBusy = s + EngineConfig::kEngineDramBw.delayFor(len);
    return *_dramBusy;
}

} // namespace bms::core
