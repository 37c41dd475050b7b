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
      _backLink(cfg.backendLanes),
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
    sim::Tick arrive = _backLink.down().controlArrival(now());
    pcie::PcieDeviceIf *ssd = _ssd;
    sim().scheduleAt(arrive, [ssd, w] {
        ssd->mmioWrite(0, w.offset, w.value);
    });
}

void
HostAdaptor::init(std::function<void()> ready)
{
    BMS_ASSERT(_ssd, "bring-up with no SSD in slot");
    // The same block every bring-up, emptied: a hot-plugged SSD's CQs
    // start with no stale phase bits, and chip memory does not grow
    // per replacement.
    _chip.clear(_block, kBlockBytes);
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
        ssdMmio(ring.cqDoorbell());
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
HostAdaptor::reserveDown(sim::Tick start, std::uint64_t bytes)
{
    sim::Tick fin = _backLink.down().reserve(start, bytes);
    if (_ifaceLink) {
        sim::Tick ifin = _ifaceLink->down().reserve(start, bytes);
        fin = std::max(fin, ifin);
    }
    return fin;
}

sim::Tick
HostAdaptor::reserveUp(sim::Tick start, std::uint64_t bytes)
{
    sim::Tick fin = _backLink.up().reserve(start, bytes);
    if (_ifaceLink) {
        sim::Tick ifin = _ifaceLink->up().reserve(start, bytes);
        fin = std::max(fin, ifin);
    }
    return fin;
}

void
HostAdaptor::dmaRead(std::uint64_t addr, std::uint32_t len,
                     sim::DataOut out, std::function<void()> done)
{
    std::uint64_t orig = GlobalPrp::originalAddr(addr);
    if (ChipMemory::contains(orig)) {
        // Command fetch, PRP-list fetch, or a migration segment's
        // write data: served from chip memory.
        _chipBytes += len;
        sim::Tick fin = reserveDown(now() + _cfg.chipMemLatency, len);
        sim().scheduleAt(fin, [this, orig, len, out,
                               done = std::move(done)] {
            if (out)
                _chip.read(orig, len, out);
            done();
        });
        return;
    }
    routeToHost(false, addr, len, out, nullptr, std::move(done));
}

void
HostAdaptor::dmaWrite(std::uint64_t addr, std::uint32_t len,
                      sim::DataIn data, std::function<void()> done)
{
    std::uint64_t orig = GlobalPrp::originalAddr(addr);
    if (ChipMemory::contains(orig)) {
        // CQE post into the adaptor's completion ring, or a
        // migration segment's read data landing in its staging buffer.
        _chipBytes += len;
        sim::Tick fin = reserveUp(now(), len) + _cfg.chipMemLatency;
        sim().scheduleAt(fin, [this, orig, len, data,
                               done = std::move(done)] {
            if (data)
                _chip.write(orig, len, data);
            done();
        });
        return;
    }
    routeToHost(true, addr, len, nullptr, data, std::move(done));
}

void
HostAdaptor::routeToHost(bool to_host, std::uint64_t addr,
                         std::uint32_t len, sim::DataOut rbuf,
                         sim::DataIn wbuf, std::function<void()> done)
{
    BMS_ASSERT(_hostUp, "engine not attached to host");
    if (sim::Check::paranoid())
        GlobalPrp::checkInvariants(addr);
    std::uint64_t orig = GlobalPrp::originalAddr(addr);
    // The function id recovered from the TLP address selects the host
    // PF/VF. The host root port routes by address in this model, so
    // the id's role here is validation/accounting — exactly the
    // "retrieve the function id and route the request" step of §IV-C.
    [[maybe_unused]] pcie::FunctionId fn = GlobalPrp::functionOf(addr);
    _routedHostBytes += len;

    if (_cfg.zeroCopy) {
        // Cut-through: the back-end link and the host link stream in
        // parallel; completion when both have carried the payload.
        sim::Tick back_fin =
            to_host ? reserveUp(now(), len)
                    : reserveDown(now() + _cfg.dmaRouteDelay, len);
        auto barrier = std::make_shared<int>(2);
        auto arm = [barrier, done = std::move(done)] {
            if (--*barrier == 0)
                done();
        };
        sim().scheduleAt(back_fin, arm);
        schedule(_cfg.dmaRouteDelay, [this, to_host, orig, len, rbuf, wbuf,
                                      arm] {
            if (to_host)
                _hostUp->dmaWrite(orig, len, wbuf, arm);
            else
                _hostUp->dmaRead(orig, len, rbuf, arm);
        });
        return;
    }

    // Store-and-forward ablation: stage the payload in engine DRAM.
    auto dram_stage = [this, len](sim::Tick start) {
        sim::Tick s = start > *_dramBusy ? start : *_dramBusy;
        *_dramBusy = s + _cfg.engineDramBw.delayFor(len);
        return *_dramBusy;
    };
    if (to_host) {
        // SSD → back link → DRAM → host link.
        sim::Tick back_fin = reserveUp(now(), len);
        sim::Tick staged = dram_stage(back_fin);
        sim().scheduleAt(staged, [this, orig, len, wbuf,
                                  done = std::move(done)] {
            _hostUp->dmaWrite(orig, len, wbuf, std::move(done));
        });
    } else {
        // Host link → DRAM → back link → SSD.
        _hostUp->dmaRead(orig, len, rbuf,
                         [this, len, dram_stage,
                          done = std::move(done)]() mutable {
                             sim::Tick staged = dram_stage(now());
                             sim::Tick fin = reserveDown(staged, len);
                             sim().scheduleAt(fin, std::move(done));
                         });
    }
}

} // namespace bms::core
