#include "host/nvme_driver.hh"

#include <cstring>
#include <utility>

#include "nvme/prp.hh"

namespace bms::host {

using nvme::AdminOpcode;
using nvme::Cqe;
using nvme::IoOpcode;
using nvme::Sqe;

NvmeDriver::NvmeDriver(sim::Simulator &sim, std::string name,
                       HostMemory &memory, InterruptController &irq,
                       pcie::RootPort &port, CpuSet &cpus,
                       pcie::FunctionId fn, Config cfg)
    : SimObject(sim, std::move(name)),
      _mem(memory),
      _irq(irq),
      _port(port),
      _cpus(cpus),
      _fn(fn),
      _cfg(cfg)
{
    BMS_ASSERT(_cfg.ioQueues >= 1, "driver needs at least one IO queue");
    BMS_ASSERT(_cfg.queueDepth >= 2, "NVMe queues need depth >= 2");
}

void
NvmeDriver::init(std::function<void()> ready)
{
    setupAdminQueues();

    // Identify namespace → capacity; then create the IO queues.
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.nsid = _cfg.nsid;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = _adminDataPage;
    adminCommand(id, [this, ready = std::move(ready)](const Cqe &cqe) mutable {
        BMS_ASSERT(cqe.ok(), "identify namespace failed");
        std::uint8_t raw[8];
        _mem.read(_adminDataPage, 8, raw);
        std::uint64_t nsze;
        std::memcpy(&nsze, raw, 8);
        _capacity = nsze * nvme::kBlockSize;

        // Create queues 1..N, chained.
        createIoQueuesFrom(1, std::move(ready));
    });
}

void
NvmeDriver::createIoQueuesFrom(std::uint16_t qid,
                               std::function<void()> ready)
{
    if (qid > _cfg.ioQueues) {
        _ready = true;
        logInfo("ready: ", _cfg.ioQueues, " IO queues, capacity ",
                _capacity / sim::kGiB, " GiB");
        ready();
        return;
    }
    createIoQueue(qid, [this, qid, ready = std::move(ready)]() mutable {
        createIoQueuesFrom(static_cast<std::uint16_t>(qid + 1),
                           std::move(ready));
    });
}

void
NvmeDriver::setupAdminQueues()
{
    _adminSqBase = _mem.alloc(_adminDepth * sizeof(Sqe));
    _adminCqBase = _mem.alloc(_adminDepth * sizeof(Cqe));
    _adminDataPage = _mem.alloc(nvme::kPageSize);

    _irq.registerHandler(_port.irqDomain(), _fn, 0,
                         [this] { adminIrq(); }, _cfg.profile.irqDelivery);

    std::uint64_t aqa = (static_cast<std::uint64_t>(_adminDepth - 1) << 16) |
                        (_adminDepth - 1);
    _port.hostMmioWrite(_fn, nvme::kRegAqa, aqa);
    _port.hostMmioWrite(_fn, nvme::kRegAsq, _adminSqBase);
    _port.hostMmioWrite(_fn, nvme::kRegAcq, _adminCqBase);
    _port.hostMmioWrite(_fn, nvme::kRegCc, nvme::kCcEnable);
}

void
NvmeDriver::adminCommand(Sqe sqe, std::function<void(const Cqe &)> done)
{
    std::uint16_t cid = _adminNextCid++;
    sqe.cid = cid;
    _adminPending[cid] = std::move(done);

    std::uint8_t raw[sizeof(Sqe)];
    nvme::toBytes(sqe, raw);
    _mem.write(_adminSqBase + static_cast<std::uint64_t>(_adminSqTail) *
                                  sizeof(Sqe),
               sizeof(Sqe), raw);
    _adminSqTail = static_cast<std::uint16_t>((_adminSqTail + 1) %
                                              _adminDepth);
    _port.hostMmioWrite(_fn, nvme::sqDoorbellOffset(0), _adminSqTail);
}

void
NvmeDriver::adminIrq()
{
    for (;;) {
        std::uint8_t raw[sizeof(Cqe)];
        _mem.read(_adminCqBase + static_cast<std::uint64_t>(_adminCqHead) *
                                     sizeof(Cqe),
                  sizeof(Cqe), raw);
        Cqe cqe = nvme::fromBytes<Cqe>(raw);
        if (cqe.phase() != _adminPhase)
            break;
        _adminCqHead = static_cast<std::uint16_t>((_adminCqHead + 1) %
                                                  _adminDepth);
        if (_adminCqHead == 0)
            _adminPhase = !_adminPhase;
        auto it = _adminPending.find(cqe.cid);
        if (it != _adminPending.end()) {
            auto cb = std::move(it->second);
            _adminPending.erase(it);
            cb(cqe);
        }
    }
    _port.hostMmioWrite(_fn, nvme::cqDoorbellOffset(0), _adminCqHead);
}

void
NvmeDriver::createIoQueue(std::uint16_t qid, std::function<void()> then)
{
    if (_queues.empty())
        _queues.resize(_cfg.ioQueues + 1u);
    Queue &q = _queues[qid];
    q.qid = qid;
    q.depth = _cfg.queueDepth;
    q.sqBase = _mem.alloc(static_cast<std::uint64_t>(q.depth) * sizeof(Sqe));
    q.cqBase = _mem.alloc(static_cast<std::uint64_t>(q.depth) * sizeof(Cqe));
    // A PRP-list page and a data slot per cid, where one page-aligned
    // allocation each would have placed them.
    q.slotBase = _mem.alloc(static_cast<std::uint64_t>(q.depth) *
                            slotStride());

    _irq.registerHandler(_port.irqDomain(), _fn, qid,
                         [this, qid] { ioIrq(qid); },
                         _cfg.profile.irqDelivery);

    Sqe ccq;
    ccq.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoCq);
    ccq.prp1 = q.cqBase;
    ccq.cdw10 = (static_cast<std::uint32_t>(q.depth - 1) << 16) | qid;
    ccq.cdw11 = (static_cast<std::uint32_t>(qid) << 16) | 0x3; // IEN|PC
    adminCommand(ccq, [this, qid, then = std::move(then)](const Cqe &c) {
        BMS_ASSERT(c.ok(), "CreateIoCq ", qid, " failed");
        Queue &q = _queues[qid];
        Sqe csq;
        csq.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoSq);
        csq.prp1 = q.sqBase;
        csq.cdw10 = (static_cast<std::uint32_t>(q.depth - 1) << 16) | qid;
        std::uint8_t prio = _cfg.sqPriority;
        if (!_cfg.sqPriorities.empty())
            prio = _cfg.sqPriorities[(qid - 1) % _cfg.sqPriorities.size()];
        // PC | QPRIO in bits 2:1 | CQID in the high half.
        csq.cdw11 = (static_cast<std::uint32_t>(qid) << 16) |
                    (static_cast<std::uint32_t>(prio & 0x3) << 1) | 0x1;
        adminCommand(csq, [then](const Cqe &c2) {
            BMS_ASSERT(c2.ok(), "CreateIoSq failed");
            then();
        });
    });
}

void
NvmeDriver::submit(BlockRequest req)
{
    BMS_ASSERT(_ready, "submit before init completed");
    // MDTS bounds data transfers only; a discard moves a 16-byte
    // range descriptor, not req.len bytes (DSM ranges may cover up
    // to 4 GiB each regardless of MDTS).
    BMS_ASSERT(req.op == BlockRequest::Op::Discard ||
                   req.len <= _cfg.maxIoBytes,
               "request exceeds MDTS: len=", req.len);
    int idx = req.queueHint >= 0 ? req.queueHint % _cfg.ioQueues
                                 : (_rrQueue++ % _cfg.ioQueues);
    Queue &q = _queues[static_cast<std::size_t>(idx) + 1];
    if (!cidAvailable(q)) {
        q.waitq.push_back(std::move(req));
        return;
    }
    pushToQueue(q, std::move(req));
}

std::uint64_t
NvmeDriver::slotStride() const
{
    std::uint64_t data = (_cfg.maxIoBytes + nvme::kPageSize - 1) /
                         nvme::kPageSize * nvme::kPageSize;
    return nvme::kPageSize + data;
}

std::uint64_t
NvmeDriver::prpListAddr(const Queue &q, std::uint16_t cid) const
{
    return q.slotBase + cid * slotStride();
}

bool
NvmeDriver::cidAvailable(const Queue &q) const
{
    return !q.freeCids.empty() || q.freshCid < q.depth;
}

void
NvmeDriver::pushToQueue(Queue &q, BlockRequest req)
{
    // Released cids first, most recent on top, then the lowest fresh
    // one: so only as many cids as were ever in flight at once hold a
    // slot.
    std::uint16_t cid;
    if (!q.freeCids.empty()) {
        cid = q.freeCids.back();
        q.freeCids.pop_back();
    } else {
        cid = q.freshCid++;
        q.slots.emplace_back();
    }
    Slot &slot = q.slots[cid];
    BMS_ASSERT(!slot.busy, "free-cid list handed out a busy slot");
    slot.busy = true;
    slot.req = std::move(req);
    ++q.inflight;

    Sqe sqe;
    sqe.cid = cid;
    sqe.nsid = _cfg.nsid;
    switch (slot.req.op) {
      case BlockRequest::Op::Read:
        sqe.opcode = static_cast<std::uint8_t>(IoOpcode::Read);
        break;
      case BlockRequest::Op::Write:
        sqe.opcode = static_cast<std::uint8_t>(IoOpcode::Write);
        break;
      case BlockRequest::Op::Flush:
        sqe.opcode = static_cast<std::uint8_t>(IoOpcode::Flush);
        break;
      case BlockRequest::Op::Discard:
        sqe.opcode = static_cast<std::uint8_t>(IoOpcode::Dsm);
        break;
    }
    if (slot.req.op == BlockRequest::Op::Discard) {
        // One 16-byte Dataset-Management range descriptor, staged in
        // the slot's (page-aligned) PRP-list page.
        BMS_ASSERT(slot.req.len % nvme::kBlockSize == 0 &&
                       slot.req.offset % nvme::kBlockSize == 0,
                   "discard not block-aligned: offset=", slot.req.offset,
                   " len=", slot.req.len);
        nvme::DsmRange range;
        range.cattr = 0;
        range.nlb =
            static_cast<std::uint32_t>(slot.req.len / nvme::kBlockSize);
        range.slba = slot.req.offset / nvme::kBlockSize;
        std::uint8_t raw[sizeof(nvme::DsmRange)];
        nvme::toBytes(range, raw);
        _mem.write(prpListAddr(q, cid), sizeof(raw), raw);
        sqe.prp1 = prpListAddr(q, cid);
        sqe.cdw10 = 0; // NR - 1: one range
        sqe.cdw11 = nvme::kDsmAttrDeallocate;
    } else if (slot.req.op != BlockRequest::Op::Flush) {
        BMS_ASSERT(slot.req.len % nvme::kBlockSize == 0 &&
                       slot.req.offset % nvme::kBlockSize == 0,
                   "I/O not block-aligned: offset=", slot.req.offset,
                   " len=", slot.req.len);
        sqe.setSlba(slot.req.offset / nvme::kBlockSize);
        sqe.setNlb(slot.req.len / nvme::kBlockSize);
        std::uint64_t list = prpListAddr(q, cid);
        std::uint64_t data =
            slot.req.dataAddr ? slot.req.dataAddr : list + nvme::kPageSize;
        nvme::PrpPair prp = nvme::buildPrp(data, slot.req.len, list, _mem);
        sqe.prp1 = prp.prp1;
        sqe.prp2 = prp.prp2;
    }

    // Charge submission CPU; ring the doorbell after the critical-path
    // part of the submit syscall. The submission may overlap deferred
    // completion work up to the profile's slack.
    CpuCore &core = _cpus.pick(q.qid - 1);
    sim::Tick start = core.reserveWithSlack(
        now(), _cfg.profile.submit.occupancy, _cfg.profile.deferSlack);
    sim::Tick ring_at = start + _cfg.profile.submit.latency;
    std::uint16_t qid = q.qid;
    sim().scheduleAt(ring_at, [this, qid, sqe] {
        ringDoorbell(_queues[qid], sqe);
    });
}

void
NvmeDriver::ringDoorbell(Queue &q, const nvme::Sqe &sqe)
{
    std::uint8_t raw[sizeof(Sqe)];
    nvme::toBytes(sqe, raw);
    _mem.write(q.sqBase + static_cast<std::uint64_t>(q.sqTail) * sizeof(Sqe),
               sizeof(Sqe), raw);
    q.sqTail = static_cast<std::uint16_t>((q.sqTail + 1) % q.depth);
    _port.hostMmioWrite(_fn, nvme::sqDoorbellOffset(q.qid), q.sqTail);
}

void
NvmeDriver::ioIrq(std::uint16_t qid)
{
    Queue &q = _queues[qid];
    ++_interrupts;
    CpuCore &core = _cpus.pick(qid - 1);
    sim::Tick irq_start = core.reserve(now(), _cfg.profile.irq.occupancy);

    bool any = false;
    for (;;) {
        std::uint8_t raw[sizeof(Cqe)];
        _mem.read(q.cqBase + static_cast<std::uint64_t>(q.cqHead) *
                                 sizeof(Cqe),
                  sizeof(Cqe), raw);
        Cqe cqe = nvme::fromBytes<Cqe>(raw);
        if (cqe.phase() != q.cqPhase)
            break;
        q.cqHead = static_cast<std::uint16_t>((q.cqHead + 1) % q.depth);
        if (q.cqHead == 0)
            q.cqPhase = !q.cqPhase;
        any = true;
        finishRequest(q, cqe, irq_start);
    }
    if (any)
        _port.hostMmioWrite(_fn, nvme::cqDoorbellOffset(qid), q.cqHead);
}

void
NvmeDriver::finishRequest(Queue &q, const nvme::Cqe &cqe,
                          sim::Tick irq_start)
{
    BMS_ASSERT_LT(cqe.cid, q.slots.size(),
                  "completion for unknown cid");
    Slot &slot = q.slots[cqe.cid];
    BMS_ASSERT(slot.busy, "completion for idle slot");
    bool ok = cqe.ok();
    auto done = std::move(slot.req.done);
    slot.busy = false;
    slot.req = BlockRequest{};
    q.freeCids.push_back(cqe.cid);
    --q.inflight;

    // Per-CQE completion cost: the occupancy caps throughput, but the
    // requester's callback runs after only the critical-path part —
    // deferred completion work (io_getevents bookkeeping etc.)
    // overlaps with the device.
    CpuCore &core = _cpus.pick(q.qid - 1);
    core.reserve(now(), _cfg.profile.completion.occupancy);
    sim::Tick at = irq_start + _cfg.profile.irq.latency +
                   _cfg.profile.completion.latency;
    if (at < now())
        at = now();
    if (done)
        sim().scheduleAt(at, [done = std::move(done), ok] { done(ok); });

    if (!q.waitq.empty() && cidAvailable(q)) {
        BlockRequest next = std::move(q.waitq.front());
        q.waitq.pop_front();
        pushToQueue(q, std::move(next));
    }
}

} // namespace bms::host
