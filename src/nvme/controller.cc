#include "nvme/controller.hh"

#include <algorithm>
#include <cstring>

#include "sim/check.hh"

namespace bms::nvme {

namespace {

/** @name WRR class weights: services per arbitration round. */
/// @{
constexpr std::uint32_t kWrrWeightHigh = 4;
constexpr std::uint32_t kWrrWeightMedium = 2;
constexpr std::uint32_t kWrrWeightLow = 1;
/// @}

} // namespace

ControllerModel::ControllerModel(sim::Simulator &sim, std::string name,
                                 Config cfg)
    : SimObject(sim, std::move(name)), _cfg(cfg)
{
    _sqs.resize(_cfg.maxIoQueues + 1u);
    _cqs.resize(_cfg.maxIoQueues + 1u);
    registerStat("readOps", [this] { return double(_readOps); });
    registerStat("writeOps", [this] { return double(_writeOps); });
    registerStat("readBytes", [this] { return double(_readBytes); });
    registerStat("writeBytes", [this] { return double(_writeBytes); });
    registerStat("inflight", [this] { return double(_inflight); });
    registerStat("arbRounds", [this] { return double(_arbRounds); });
    registerStat("fetchBatches", [this] { return double(_fetchBatches); });
    registerStat("fetchedSqes", [this] { return double(_fetchedSqes); });
}

std::uint16_t
ControllerModel::ioSqCount() const
{
    std::uint16_t n = 0;
    for (std::size_t qid = 1; qid < _sqs.size(); ++qid)
        if (_sqs[qid].valid)
            ++n;
    return n;
}

ControllerModel::SqSnapshot
ControllerModel::sqSnapshot(std::uint16_t sqid) const
{
    SqSnapshot s;
    if (sqid >= _sqs.size())
        return s;
    const SubQueue &sq = _sqs[sqid];
    s.valid = sq.valid;
    s.prio = sq.prio;
    s.backlog = sq.backlog();
    s.maxBacklog = sq.maxBacklog;
    s.fetched = sq.fetched;
    return s;
}

std::uint32_t
ControllerModel::maxSqBacklog() const
{
    std::uint32_t deepest = 0;
    for (std::size_t qid = 1; qid < _sqs.size(); ++qid)
        deepest = std::max(deepest, _sqs[qid].maxBacklog);
    return deepest;
}

void
ControllerModel::addNamespace(const NamespaceInfo &ns)
{
    BMS_ASSERT(ns.nsid != 0 && !findNamespace(ns.nsid),
               "nsid ", ns.nsid, " is zero or already present");
    _nses.push_back(ns);
}

void
ControllerModel::removeNamespace(std::uint32_t nsid)
{
    std::erase_if(_nses,
                  [nsid](const NamespaceInfo &n) { return n.nsid == nsid; });
}

const NamespaceInfo *
ControllerModel::findNamespace(std::uint32_t nsid) const
{
    for (const auto &n : _nses)
        if (n.nsid == nsid)
            return &n;
    return nullptr;
}

void
ControllerModel::regWrite(std::uint64_t offset, std::uint64_t value)
{
    if (auto ref = decodeDoorbell(offset); ref.valid) {
        doorbell(ref, value);
        return;
    }
    switch (offset) {
      case kRegCc:
        _cc = value;
        if ((value & kCcEnable) && !_enabled)
            enable();
        else if (!(value & kCcEnable) && _enabled)
            disable();
        break;
      case kRegAqa:
        _aqa = value;
        break;
      case kRegAsq:
        _asq = value;
        break;
      case kRegAcq:
        _acq = value;
        break;
      default:
        logWarn("write to unimplemented register 0x", offset);
        break;
    }
}

std::uint64_t
ControllerModel::regRead(std::uint64_t offset) const
{
    switch (offset) {
      case kRegCap:
        // MQES (max queue entries - 1) in [15:0]; CSS/DSTRD zero.
        return 4095;
      case kRegCc:
        return _cc;
      case kRegCsts:
        return _enabled ? kCstsReady : 0;
      case kRegAqa:
        return _aqa;
      case kRegAsq:
        return _asq;
      case kRegAcq:
        return _acq;
      default:
        return 0;
    }
}

void
ControllerModel::enable()
{
    BMS_ASSERT(_up, "controller enabled before attach");
    _enabled = true;
    // Admin queues from AQA/ASQ/ACQ. AQA: [11:0] SQ size-1,
    // [27:16] CQ size-1.
    auto &sq = _sqs[0];
    sq.valid = true;
    sq.base = _asq;
    sq.size = static_cast<std::uint16_t>((_aqa & 0xfff) + 1);
    sq.head = sq.tail = 0;
    sq.cqid = 0;
    auto &cq = _cqs[0];
    cq.valid = true;
    cq.base = _acq;
    cq.size = static_cast<std::uint16_t>(((_aqa >> 16) & 0xfff) + 1);
    cq.tail = 0;
    cq.headDoorbell = 0;
    cq.phase = true;
    cq.irqEnabled = true;
    cq.vector = 0;
    logDebug("enabled: admin SQ ", sq.size, " entries, CQ ", cq.size);
    onEnabled();
}

void
ControllerModel::disable()
{
    _enabled = false;
    for (auto &sq : _sqs)
        sq = SubQueue{};
    for (auto &cq : _cqs)
        cq = ComplQueue{};
    _inflight = 0;
    _sqTop = 0;
    _rrCursor = 1;
    for (auto &c : _wrrCursor)
        c = 1;
    onDisabled();
}

void
ControllerModel::doorbell(const DoorbellRef &ref, std::uint64_t value)
{
    if (!_enabled || ref.qid >= _sqs.size())
        return;
    if (ref.isSq) {
        auto &sq = _sqs[ref.qid];
        if (!sq.valid)
            return;
        auto tail = static_cast<std::uint16_t>(value % sq.size);
        // A ring holding `size` entries reads as empty (tail == head)
        // and loses all of them: an initiator keeps at most size - 1
        // in it (nvme::QueuePair).
        std::uint32_t added = (tail + sq.size - sq.tail) % sq.size;
        BMS_ASSERT_LT(sq.backlog() + added, std::uint32_t{sq.size},
                      "SQ ", ref.qid, " overrun: tail ", tail, " laps head ",
                      sq.head);
        sq.tail = tail;
        sq.maxBacklog = std::max(sq.maxBacklog, sq.backlog());
        // Admin commands are strict-priority in every mode; IO SQs go
        // through the configured arbiter.
        if (ref.qid == 0 || _cfg.arb == ArbitrationMode::Immediate)
            fetchEach(ref.qid);
        else
            signalArbitration();
    } else {
        auto &cq = _cqs[ref.qid];
        if (!cq.valid)
            return;
        cq.headDoorbell = static_cast<std::uint16_t>(value % cq.size);
    }
}

void
ControllerModel::fetchEach(std::uint16_t sqid)
{
    while (!_fetchPaused && _sqs[sqid].backlog() != 0)
        fetchBurst(sqid, 1);
}

void
ControllerModel::pauseFetch()
{
    _fetchPaused = true;
}

void
ControllerModel::resumeFetch()
{
    if (!_fetchPaused)
        return;
    _fetchPaused = false;
    if (_cfg.arb == ArbitrationMode::Immediate) {
        for (std::uint16_t qid = 0; qid < _sqs.size(); ++qid)
            fetchEach(qid);
        return;
    }
    fetchEach(0); // admin drains immediately in every mode
    signalArbitration();
}

void
ControllerModel::signalArbitration()
{
    if (_arbScheduled) {
        ++_doorbellsCoalesced;
        return;
    }
    if (!_enabled || _fetchPaused)
        return; // resumeFetch()/enable() re-signals
    _arbScheduled = true;
    schedule(_cfg.doorbellBatchDelay, [this] {
        _arbScheduled = false;
        arbitrate();
    });
}

void
ControllerModel::arbitrate()
{
    if (!_enabled || _fetchPaused)
        return;
    ++_arbRounds;
    if (_cfg.arb == ArbitrationMode::RoundRobin) {
        // One grand round: every backlogged IO SQ gets one burst.
        serviceRound(kPrioAny,
                     static_cast<std::uint32_t>(_sqs.size() - 1),
                     &_rrCursor);
    } else {
        // Urgent is strict-priority: drain it before the weighted
        // classes see any service at all.
        serviceRound(kQPrioUrgent, ~0u, &_wrrCursor[kQPrioUrgent]);
        serviceRound(kQPrioHigh, kWrrWeightHigh, &_wrrCursor[kQPrioHigh]);
        serviceRound(kQPrioMedium, kWrrWeightMedium,
                     &_wrrCursor[kQPrioMedium]);
        serviceRound(kQPrioLow, kWrrWeightLow, &_wrrCursor[kQPrioLow]);
    }
    for (std::size_t qid = 1; qid <= _sqTop; ++qid) {
        if (_sqs[qid].valid && _sqs[qid].backlog() != 0) {
            signalArbitration(); // leftover backlog: re-arm the pass
            break;
        }
    }
}

std::uint32_t
ControllerModel::serviceRound(std::uint8_t prio, std::uint32_t credits,
                              std::uint16_t *cursor)
{
    // No SQ above the top is valid, so a cycle over [1, top] visits
    // every queue that can have backlog: a cursor past the top moves
    // on to 1, as it would after passing the invalid queues above.
    const std::uint16_t n = _sqTop;
    if (n == 0 || credits == 0)
        return 0;
    std::uint32_t services = 0;
    std::uint16_t qid = *cursor;
    if (qid == 0 || qid > n)
        qid = 1;
    std::uint16_t idle = 0; // consecutive queues without backlog
    while (credits > 0 && idle < n) {
        SubQueue &sq = _sqs[qid];
        if (sq.valid && sq.backlog() != 0 &&
            (prio == kPrioAny || sq.prio == prio)) {
            fetchBurst(qid, _cfg.arbBurst);
            --credits;
            ++services;
            idle = 0;
        } else {
            ++idle;
        }
        qid = (qid == n) ? std::uint16_t{1}
                         : static_cast<std::uint16_t>(qid + 1);
    }
    *cursor = qid;
    return services;
}

void
ControllerModel::fetchBurst(std::uint16_t sqid, std::uint32_t maxN)
{
    SubQueue &sq = _sqs[sqid];
    std::uint32_t n = std::min(
        {sq.backlog(), maxN,
         static_cast<std::uint32_t>(sq.size - sq.head)});
    if (n == 0)
        return;
    std::uint64_t addr =
        sq.base + static_cast<std::uint64_t>(sq.head) * sizeof(Sqe);
    sq.head = static_cast<std::uint16_t>((sq.head + n) % sq.size);
    if (sqid != 0) {
        sq.fetched += n;
        ++_fetchBatches;
        _fetchedSqes += n;
    }
    const Handle first = _cmds.open();
    _cmds[first].sqid = sqid;
    _cmds[first].fetch.resize(n * sizeof(Sqe));
    _up->dmaRead(addr, n * sizeof(Sqe), _cmds[first].fetch.data(),
                 [this, first, n] {
        // One completion delivers the whole burst in ring order, each
        // SQE into a record of its own; the event queue's same-tick
        // FIFO keeps intra-SQ order intact. The first record keeps the
        // bytes through the loop: it is posted a DMA later at least.
        for (std::uint32_t i = 0; i < n; ++i) {
            const Handle h = i == 0 ? first : _cmds.open();
            _cmds[h].sqe = fromBytes<Sqe>(_cmds[first].fetch.data() +
                                          i * sizeof(Sqe));
            _cmds[h].sqid = _cmds[first].sqid;
            fetched(h);
        }
    });
}

void
ControllerModel::fetched(Handle h)
{
    if (_cfg.cmdProcDelay == 0) {
        dispatch(h);
        return;
    }
    schedule(_cfg.cmdProcDelay, [this, h] { dispatch(h); });
}

void
ControllerModel::dispatch(Handle h)
{
    ++_inflight;
    if (_cmds[h].sqid == 0) {
        adminBuiltin(h);
        return;
    }
    const Sqe &sqe = _cmds[h].sqe;
    switch (static_cast<IoOpcode>(sqe.opcode)) {
      case IoOpcode::Read:
        ++_readOps;
        _readBytes += sqe.dataBytes();
        break;
      case IoOpcode::Write:
        ++_writeOps;
        _writeBytes += sqe.dataBytes();
        break;
      default:
        break;
    }
    executeIo(h);
}

void
ControllerModel::adminBuiltin(Handle h)
{
    const Sqe &sqe = _cmds[h].sqe;
    switch (static_cast<AdminOpcode>(sqe.opcode)) {
      case AdminOpcode::CreateIoCq: {
        std::uint16_t qid = sqe.cdw10 & 0xffff;
        std::uint16_t qsize =
            static_cast<std::uint16_t>(((sqe.cdw10 >> 16) & 0xffff) + 1);
        if (qid == 0 || qid >= _cqs.size()) {
            complete(h, Status::InvalidField);
            return;
        }
        auto &cq = _cqs[qid];
        cq.valid = true;
        cq.base = sqe.prp1;
        cq.size = qsize;
        cq.tail = 0;
        cq.headDoorbell = 0;
        cq.phase = true;
        cq.irqEnabled = (sqe.cdw11 >> 1) & 0x1;
        cq.vector = static_cast<std::uint16_t>(sqe.cdw11 >> 16);
        complete(h, Status::Success);
        return;
      }
      case AdminOpcode::CreateIoSq: {
        std::uint16_t qid = sqe.cdw10 & 0xffff;
        std::uint16_t qsize =
            static_cast<std::uint16_t>(((sqe.cdw10 >> 16) & 0xffff) + 1);
        std::uint16_t cqid = static_cast<std::uint16_t>(sqe.cdw11 >> 16);
        if (qid == 0 || qid >= _sqs.size() || !_cqs[cqid].valid) {
            complete(h, Status::InvalidField);
            return;
        }
        auto &sq = _sqs[qid];
        sq = SubQueue{};
        sq.valid = true;
        sq.base = sqe.prp1;
        sq.size = qsize;
        sq.head = sq.tail = 0;
        sq.cqid = cqid;
        sq.prio = static_cast<std::uint8_t>((sqe.cdw11 >> 1) & 0x3);
        _sqTop = std::max(_sqTop, qid);
        complete(h, Status::Success);
        return;
      }
      case AdminOpcode::DeleteIoSq: {
        std::uint16_t qid = sqe.cdw10 & 0xffff;
        if (qid > 0 && qid < _sqs.size())
            _sqs[qid] = SubQueue{};
        while (_sqTop > 0 && !_sqs[_sqTop].valid)
            --_sqTop;
        complete(h, Status::Success);
        return;
      }
      case AdminOpcode::DeleteIoCq: {
        std::uint16_t qid = sqe.cdw10 & 0xffff;
        if (qid > 0 && qid < _cqs.size())
            _cqs[qid] = ComplQueue{};
        complete(h, Status::Success);
        return;
      }
      case AdminOpcode::SetFeatures: {
        std::uint8_t fid = sqe.cdw10 & 0xff;
        if (fid == 0x07) { // Number of Queues
            std::uint32_t grant =
                (static_cast<std::uint32_t>(_cfg.maxIoQueues - 1) << 16) |
                (_cfg.maxIoQueues - 1);
            complete(h, Status::Success, grant);
        } else {
            complete(h, Status::Success);
        }
        return;
      }
      case AdminOpcode::GetFeatures:
        complete(h, Status::Success);
        return;
      case AdminOpcode::Identify:
        identify(h);
        return;
      default:
        executeAdmin(h);
        return;
    }
}

void
ControllerModel::executeAdmin(Handle h)
{
    logWarn("unsupported admin opcode 0x",
            static_cast<unsigned>(_cmds[h].sqe.opcode));
    complete(h, Status::InvalidOpcode);
}

void
ControllerModel::identify(Handle h)
{
    const Sqe &sqe = _cmds[h].sqe;
    std::uint8_t data[kPageSize] = {};
    auto cns = static_cast<IdentifyCns>(sqe.cdw10 & 0xff);
    switch (cns) {
      case IdentifyCns::Controller: {
        // Bytes 24..63: model number (ASCII).
        std::size_t n = std::min<std::size_t>(_cfg.model.size(), 40);
        std::memcpy(data + 24, _cfg.model.data(), n);
        // Byte 516..519: number of namespaces.
        std::uint32_t nn = static_cast<std::uint32_t>(_nses.size());
        std::memcpy(data + 516, &nn, sizeof(nn));
        break;
      }
      case IdentifyCns::Namespace: {
        const NamespaceInfo *ns = findNamespace(sqe.nsid);
        if (!ns) {
            complete(h, Status::InvalidNamespace);
            return;
        }
        std::uint64_t nsze = ns->sizeBlocks;
        std::memcpy(data + 0, &nsze, sizeof(nsze));  // NSZE
        std::memcpy(data + 8, &nsze, sizeof(nsze));  // NCAP
        std::memcpy(data + 16, &nsze, sizeof(nsze)); // NUSE
        break;
      }
      case IdentifyCns::ActiveNsList: {
        auto *ids = reinterpret_cast<std::uint32_t *>(data);
        std::size_t i = 0;
        for (const auto &n : _nses) {
            if (i >= kPageSize / sizeof(std::uint32_t))
                break;
            ids[i++] = n.nsid;
        }
        break;
      }
      default:
        complete(h, Status::InvalidField);
        return;
    }
    sendPage(h, data);
}

void
ControllerModel::sendPage(Handle h, const std::uint8_t *data)
{
    Cmd &c = _cmds[h];
    BMS_ASSERT(c.sqe.prp1 % kPageSize == 0,
               "admin data buffers are single page-aligned pages");
    if (data)
        c.page.assign(data, data + kPageSize);
    else
        c.page.assign(kPageSize, 0);
    _up->dmaWrite(c.sqe.prp1, kPageSize, c.page.data(),
                  [this, h] { complete(h, Status::Success); });
}

void
ControllerModel::complete(Handle h, Status st, std::uint32_t dw0)
{
    Cmd &c = _cmds[h];
    const std::uint16_t sqid = c.sqid;
    BMS_ASSERT(sqid < _sqs.size() && _sqs[sqid].valid,
               "completion for invalid SQ ", sqid);
    BMS_ASSERT(_inflight > 0, "completion with nothing in flight");
    --_inflight;
    auto &sq = _sqs[sqid];
    auto &cq = _cqs[sq.cqid];
    BMS_ASSERT(cq.valid, "completion into invalid CQ");

    Cqe cqe;
    cqe.dw0 = dw0;
    cqe.sqHead = sq.head;
    cqe.sqId = sqid;
    cqe.cid = c.sqe.cid;
    cqe.setStatusPhase(st, cq.phase);

    std::uint64_t addr =
        cq.base + static_cast<std::uint64_t>(cq.tail) * sizeof(Cqe);
    cq.tail = static_cast<std::uint16_t>((cq.tail + 1) % cq.size);
    if (cq.tail == 0)
        cq.phase = !cq.phase;

    toBytes(cqe, c.cqe.data());
    c.irq = cq.irqEnabled;
    c.vector = cq.vector;
    _up->dmaWrite(addr, sizeof(Cqe), c.cqe.data(), [this, h] {
        Cmd &c = _cmds[h];
        if (c.irq)
            _up->msix(_cfg.fn, c.vector);
        // Admin pages are rare: a freed record keeps none.
        std::vector<std::uint8_t>().swap(c.page);
        _cmds.free(h);
    });
}

} // namespace bms::nvme
