#include "host/nvme_driver.hh"

#include <cstring>
#include <utility>

#include "nvme/prp.hh"

namespace bms::host {

using nvme::AdminOpcode;
using nvme::Cqe;
using nvme::IoOpcode;
using nvme::Sqe;

namespace {

/** Admin ring entries; the ring holds one command fewer. */
constexpr std::uint16_t kAdminEntries = 32;

/** Bytes from one cid's PRP-list page to the next one's: the page,
 *  then a data slot of the largest transfer. */
constexpr std::uint64_t kSlotStride =
    nvme::kPageSize + NvmeDriver::kMaxIoBytes;
static_assert(NvmeDriver::kMaxIoBytes % nvme::kPageSize == 0,
              "data slots stay page-aligned");

} // namespace

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
    // Queues are built in place as bring-up creates them; references
    // to them must stay valid meanwhile.
    _queues.reserve(_cfg.ioQueues);
}

void
NvmeDriver::init(std::function<void()> ready)
{
    std::uint64_t sq = _mem.alloc(kAdminEntries * sizeof(Sqe));
    std::uint64_t cq = _mem.alloc(kAdminEntries * sizeof(Cqe));
    _adminDataPage = _mem.alloc(nvme::kPageSize);
    _admin.emplace(_mem, 0, kAdminEntries, sq, cq);
    _irq.registerHandler(_port.irqDomain(), _fn, 0,
                         [this] { adminIrq(); }, _cfg.profile.irqDelivery);
    for (const nvme::RegWrite &w : _admin->enable())
        mmio(w);

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
    std::uint16_t depth = _cfg.queueDepth;
    std::uint64_t sq = _mem.alloc(static_cast<std::uint64_t>(depth) *
                                  sizeof(Sqe));
    std::uint64_t cq = _mem.alloc(static_cast<std::uint64_t>(depth) *
                                  sizeof(Cqe));
    // A PRP-list page and a data slot per cid, where one page-aligned
    // allocation each would have placed them.
    std::uint64_t slots = _mem.alloc(depth * kSlotStride);
    IoQueue &q = _queues.emplace_back(_mem, qid, depth, sq, cq, slots);
    _irq.registerHandler(_port.irqDomain(), _fn, qid,
                         [this, qid] { ioIrq(qid); },
                         _cfg.profile.irqDelivery);

    adminCommand(q.createCq(), [this, qid,
                                ready = std::move(ready)](const Cqe &c) {
        BMS_ASSERT(c.ok(), "CreateIoCq ", qid, " failed");
        std::uint8_t prio = nvme::kQPrioMedium;
        if (!_cfg.sqPriorities.empty())
            prio = _cfg.sqPriorities[(qid - 1) % _cfg.sqPriorities.size()];
        adminCommand(_queues[qid - 1].createSq(prio),
                     [this, qid, ready](const Cqe &c2) {
                         BMS_ASSERT(c2.ok(), "CreateIoSq failed");
                         createIoQueuesFrom(
                             static_cast<std::uint16_t>(qid + 1), ready);
                     });
    });
}

void
NvmeDriver::adminCommand(Sqe sqe, std::function<void(const Cqe &)> done)
{
    if (std::optional<std::uint16_t> cid =
            _admin->admit({sqe, std::move(done)}))
        issueAdmin(*cid);
}

void
NvmeDriver::issueAdmin(std::uint16_t cid)
{
    mmio(_admin->push((*_admin)[cid].sqe, cid));
}

void
NvmeDriver::adminIrq()
{
    while (std::optional<Cqe> cqe = _admin->pop()) {
        _admin->complete(
            cqe->cid,
            [&](nvme::Command cmd) {
                if (cmd.done)
                    cmd.done(*cqe);
            },
            [this](std::uint16_t cid) { issueAdmin(cid); });
    }
    cqHead(_admin->cqDoorbell());
}

void
NvmeDriver::submit(BlockRequest req)
{
    BMS_ASSERT(_ready, "submit before init completed");
    // MDTS bounds data transfers only; a discard moves a 16-byte
    // range descriptor, not req.len bytes (DSM ranges may cover up
    // to 4 GiB each regardless of MDTS).
    BMS_ASSERT(req.op == BlockRequest::Op::Discard ||
                   req.len <= kMaxIoBytes,
               "request exceeds MDTS: len=", req.len);
    int idx = req.queueHint >= 0 ? req.queueHint % _cfg.ioQueues
                                 : (_rrQueue++ % _cfg.ioQueues);
    IoQueue &q = _queues[static_cast<std::size_t>(idx)];
    if (std::optional<std::uint16_t> cid = q.admit({std::move(req), {}}))
        issueIo(q, *cid);
}

void
NvmeDriver::issueIo(IoQueue &q, std::uint16_t cid)
{
    const BlockRequest &req = q[cid].req;
    Sqe &sqe = q[cid].sqe;
    sqe = Sqe{};
    sqe.nsid = _cfg.nsid;
    switch (req.op) {
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
    std::uint64_t list = q.slotBase + cid * kSlotStride;
    if (req.op == BlockRequest::Op::Discard) {
        // One 16-byte Dataset-Management range descriptor, staged in
        // the slot's (page-aligned) PRP-list page.
        BMS_ASSERT(req.len % nvme::kBlockSize == 0 &&
                       req.offset % nvme::kBlockSize == 0,
                   "discard not block-aligned: offset=", req.offset,
                   " len=", req.len);
        nvme::DsmRange range;
        range.cattr = 0;
        range.nlb = static_cast<std::uint32_t>(req.len / nvme::kBlockSize);
        range.slba = req.offset / nvme::kBlockSize;
        std::uint8_t raw[sizeof(nvme::DsmRange)];
        nvme::toBytes(range, raw);
        _mem.write(list, sizeof(raw), raw);
        sqe.prp1 = list;
        sqe.cdw10 = 0; // NR - 1: one range
        sqe.cdw11 = nvme::kDsmAttrDeallocate;
    } else if (req.op != BlockRequest::Op::Flush) {
        BMS_ASSERT(req.len % nvme::kBlockSize == 0 &&
                       req.offset % nvme::kBlockSize == 0,
                   "I/O not block-aligned: offset=", req.offset,
                   " len=", req.len);
        sqe.setSlba(req.offset / nvme::kBlockSize);
        sqe.setNlb(req.len / nvme::kBlockSize);
        std::uint64_t data = req.dataAddr ? req.dataAddr
                                          : list + nvme::kPageSize;
        nvme::PrpPair prp = nvme::buildPrp(data, req.len, list, _mem);
        sqe.prp1 = prp.prp1;
        sqe.prp2 = prp.prp2;
    }

    // Charge submission CPU; write the SQE and ring the doorbell after
    // the critical-path part of the submit syscall. The submission may
    // overlap deferred completion work up to the profile's slack.
    CpuCore &core = _cpus.pick(q.qid() - 1);
    sim::Tick start = core.reserveWithSlack(
        now(), _cfg.profile.submit.occupancy, _cfg.profile.deferSlack);
    sim::Tick ring_at = start + _cfg.profile.submit.latency;
    std::uint16_t qid = q.qid();
    sim().scheduleAt(ring_at, [this, qid, cid] {
        IoQueue &q = _queues[qid - 1];
        mmio(q.push(q[cid].sqe, cid));
    });
}

void
NvmeDriver::ioIrq(std::uint16_t qid)
{
    IoQueue &q = _queues[qid - 1];
    ++_interrupts;
    CpuCore &core = _cpus.pick(qid - 1);
    sim::Tick irq_start = core.reserve(now(), _cfg.profile.irq.occupancy);

    bool any = false;
    while (std::optional<Cqe> cqe = q.pop()) {
        any = true;
        bool ok = cqe->ok();
        q.complete(
            cqe->cid,
            [&](IoCmd cmd) {
                // Per-CQE completion cost: the occupancy caps
                // throughput, but the requester's callback runs after
                // only the critical-path part — deferred completion
                // work (io_getevents bookkeeping etc.) overlaps with
                // the device.
                core.reserve(now(), _cfg.profile.completion.occupancy);
                sim::Tick at = irq_start + _cfg.profile.irq.latency +
                               _cfg.profile.completion.latency;
                if (at < now())
                    at = now();
                if (!cmd.req.done)
                    return;
                const auto h = _completions.open();
                _completions[h] = {std::move(cmd.req.done), ok};
                sim().scheduleAt(at, [this, h] {
                    Completion c = std::move(_completions[h]);
                    _completions.free(h);
                    c.done(c.ok);
                });
            },
            [&](std::uint16_t cid) { issueIo(q, cid); });
    }
    if (any)
        cqHead(q.cqDoorbell());
}

void
NvmeDriver::mmio(nvme::RegWrite w)
{
    _port.hostMmioWrite(_fn, w.offset, w.value);
}

void
NvmeDriver::cqHead(nvme::RegWrite w)
{
    _port.device()->mmioWrite(_fn, w.offset, w.value);
}

} // namespace bms::host
