#include "core/engine/host_adaptor.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/engine/global_prp.hh"
#include "sim/check.hh"

namespace bms::core {

using nvme::Cqe;
using nvme::Sqe;

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
      _ifaceLink(iface_link)
{
    if (shared_dram_busy)
        _dramBusy = shared_dram_busy;
    registerStat("routedHostBytes",
                 [this] { return double(_routedHostBytes); });
    registerStat("chipBytes", [this] { return double(_chipBytes); });
    registerStat("completedIos",
                 [this] { return double(_completedIos); });
    registerStat("inflight", [this] { return double(_inflight); });
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
    BMS_ASSERT_EQ(_inflight, 0u, "detach with I/O in flight");
    _ssd = nullptr;
    _ready = false;
}

void
HostAdaptor::ssdMmio(std::uint64_t offset, std::uint64_t value)
{
    BMS_ASSERT(_ssd, "MMIO write to empty back-end slot");
    sim::Tick arrive = _backLink.down().controlArrival(now());
    pcie::PcieDeviceIf *ssd = _ssd;
    sim().scheduleAt(arrive, [ssd, offset, value] {
        ssd->mmioWrite(0, offset, value);
    });
}

void
HostAdaptor::init(std::function<void()> ready)
{
    BMS_ASSERT(_ssd, "bring-up with no SSD in slot");
    // Fresh rings each bring-up (hot-plug replaces the whole state).
    _admin = Ring{};
    _admin.depth = 32;
    _admin.sqBase = _chip.alloc(_admin.depth * sizeof(Sqe));
    _admin.cqBase = _chip.alloc(_admin.depth * sizeof(Cqe));
    _admin.pending.resize(_admin.depth);
    for (std::uint16_t i = 0; i < _admin.depth; ++i)
        _admin.freeCids.push_back(static_cast<std::uint16_t>(
            _admin.depth - 1 - i));

    _io = Ring{};
    _io.depth = _cfg.backendQueueDepth;
    _io.sqBase = _chip.alloc(static_cast<std::uint64_t>(_io.depth) *
                             sizeof(Sqe));
    _io.cqBase = _chip.alloc(static_cast<std::uint64_t>(_io.depth) *
                             sizeof(Cqe));
    _io.pending.resize(_io.depth);
    for (std::uint16_t i = 0; i < _io.depth; ++i)
        _io.freeCids.push_back(static_cast<std::uint16_t>(
            _io.depth - 1 - i));

    std::uint64_t aqa =
        (static_cast<std::uint64_t>(_admin.depth - 1) << 16) |
        (_admin.depth - 1);
    ssdMmio(nvme::kRegAqa, aqa);
    ssdMmio(nvme::kRegAsq, _admin.sqBase);
    ssdMmio(nvme::kRegAcq, _admin.cqBase);
    ssdMmio(nvme::kRegCc, nvme::kCcEnable);

    // Identify namespace 1 → capacity, then create the IO queues.
    std::uint64_t id_page = _chip.alloc(nvme::kPageSize, 4096);
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::Identify);
    id.nsid = 1;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = id_page;
    adminCommand(id, [this, id_page, ready = std::move(ready)](
                         const Cqe &cqe) {
        BMS_ASSERT(cqe.ok(), "back-end identify failed");
        std::uint8_t raw[8];
        _chip.read(id_page, 8, raw);
        std::uint64_t nsze;
        std::memcpy(&nsze, raw, 8);
        _capacity = nsze * nvme::kBlockSize;

        Sqe ccq;
        ccq.opcode =
            static_cast<std::uint8_t>(nvme::AdminOpcode::CreateIoCq);
        ccq.prp1 = _io.cqBase;
        ccq.cdw10 = (static_cast<std::uint32_t>(_io.depth - 1) << 16) | 1;
        ccq.cdw11 = (1u << 16) | 0x3; // vector 1, IEN, PC
        adminCommand(ccq, [this, ready](const Cqe &c1) {
            BMS_ASSERT(c1.ok(), "back-end CreateIoCq failed");
            Sqe csq;
            csq.opcode =
                static_cast<std::uint8_t>(nvme::AdminOpcode::CreateIoSq);
            csq.prp1 = _io.sqBase;
            csq.cdw10 =
                (static_cast<std::uint32_t>(_io.depth - 1) << 16) | 1;
            csq.cdw11 = (1u << 16) | 0x1; // CQ 1, PC
            adminCommand(csq, [this, ready](const Cqe &c2) {
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
    push(_io, 1, sqe, std::move(done));
}

void
HostAdaptor::adminCommand(const Sqe &sqe, CqeHandler done)
{
    push(_admin, 0, sqe, std::move(done));
}

void
HostAdaptor::push(Ring &ring, std::uint16_t qid, Sqe sqe, CqeHandler done)
{
    if (ring.freeCids.empty()) {
        ring.waitq.emplace_back(sqe, std::move(done));
        return;
    }
    std::uint16_t cid = ring.freeCids.back();
    ring.freeCids.pop_back();
    sqe.cid = cid;
    ring.pending[cid] = std::move(done);
    ++_inflight;

    std::uint8_t raw[sizeof(Sqe)];
    nvme::toBytes(sqe, raw);
    _chip.write(ring.sqBase + static_cast<std::uint64_t>(ring.sqTail) *
                                  sizeof(Sqe),
                sizeof(Sqe), raw);
    ring.sqTail = static_cast<std::uint16_t>((ring.sqTail + 1) % ring.depth);
    ssdMmio(nvme::sqDoorbellOffset(qid), ring.sqTail);
}

void
HostAdaptor::msix(pcie::FunctionId fn, std::uint16_t vector)
{
    BMS_ASSERT_EQ(fn, 0, "back-end SSD is single-function");
    sim::Tick arrive = _backLink.up().controlArrival(now());
    sim().scheduleAt(arrive, [this, vector] {
        if (vector == 0)
            scanCq(_admin, 0);
        else
            scanCq(_io, 1);
    });
}

void
HostAdaptor::scanCq(Ring &ring, std::uint16_t qid)
{
    bool any = false;
    for (;;) {
        std::uint8_t raw[sizeof(Cqe)];
        _chip.read(ring.cqBase + static_cast<std::uint64_t>(ring.cqHead) *
                                     sizeof(Cqe),
                   sizeof(Cqe), raw);
        Cqe cqe = nvme::fromBytes<Cqe>(raw);
        if (cqe.phase() != ring.cqPhase)
            break;
        ring.cqHead =
            static_cast<std::uint16_t>((ring.cqHead + 1) % ring.depth);
        if (ring.cqHead == 0)
            ring.cqPhase = !ring.cqPhase;
        any = true;

        BMS_ASSERT_LT(cqe.cid, ring.pending.size(),
                      "completion for unknown cid");
        CqeHandler handler = std::move(ring.pending[cqe.cid]);
        ring.pending[cqe.cid] = nullptr;
        ring.freeCids.push_back(cqe.cid);
        BMS_ASSERT(_inflight > 0,
                   "completion with no I/O in flight");
        --_inflight;
        if (&ring == &_io)
            ++_completedIos;
        if (handler)
            handler(cqe);

        if (!ring.waitq.empty() && !ring.freeCids.empty()) {
            auto [next_sqe, next_done] = std::move(ring.waitq.front());
            ring.waitq.pop_front();
            push(ring, qid, next_sqe, std::move(next_done));
        }
    }
    if (any)
        ssdMmio(nvme::cqDoorbellOffset(qid), ring.cqHead);
    checkDrained();
}

void
HostAdaptor::whenDrained(std::function<void()> cb)
{
    if (_inflight == 0) {
        cb();
        return;
    }
    _drainWaiters.push_back(std::move(cb));
}

void
HostAdaptor::checkDrained()
{
    if (_inflight != 0 || _drainWaiters.empty())
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
