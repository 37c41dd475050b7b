#include "nvme/queue_pair.hh"

namespace bms::nvme {

QueueRings::QueueRings(pcie::MemoryIf &memory, std::uint16_t qid,
                       std::uint16_t entries, std::uint64_t sq_base,
                       std::uint64_t cq_base)
    : _memory(&memory),
      _sqBase(sq_base),
      _cqBase(cq_base),
      _qid(qid),
      _entries(entries)
{
    BMS_ASSERT(entries >= 2, "NVMe queues need at least 2 entries");
    constexpr std::uint64_t kPage = sim::SparseMemory::kPageBytes;
    std::uint64_t end = sq_base + std::uint64_t{entries} * sizeof(Sqe);
    _wholeFirst = (sq_base + kPage - 1) / kPage;
    if (end / kPage > _wholeFirst)
        _wholePages = static_cast<std::uint32_t>(end / kPage - _wholeFirst);
}

std::uint16_t
QueueRings::hold()
{
    if (std::uint16_t *n = outstanding(_sqTail))
        ++*n;
    return _sqTail;
}

void
QueueRings::retire(std::uint16_t slot)
{
    std::uint16_t *n = outstanding(slot);
    if (!n)
        return; // a page shared with other data stays
    BMS_ASSERT(*n > 0, "queue ", _qid, " retires SQ slot ", slot,
               " with nothing outstanding in its page");
    constexpr std::uint64_t kPage = sim::SparseMemory::kPageBytes;
    if (--*n == 0 && sqPage(slot) != sqPage(_sqTail))
        _memory->release(sqPage(slot) * kPage, kPage);
}

std::uint16_t *
QueueRings::outstanding(std::uint16_t slot)
{
    // Below the first whole page the difference wraps past the count.
    std::uint64_t i = sqPage(slot) - _wholeFirst;
    if (i >= _wholePages)
        return nullptr;
    if (_outstanding.empty())
        _outstanding.resize(_wholePages);
    return &_outstanding[i];
}

RegWrite
QueueRings::push(Sqe sqe, std::uint16_t cid)
{
    sqe.cid = cid;
    std::uint8_t raw[sizeof(Sqe)];
    toBytes(sqe, raw);
    _memory->write(_sqBase + static_cast<std::uint64_t>(_sqTail) *
                                 sizeof(Sqe),
                   sizeof(Sqe), raw);
    _sqTail = static_cast<std::uint16_t>((_sqTail + 1) % _entries);
    return sqDoorbell();
}

std::optional<Cqe>
QueueRings::pop()
{
    std::uint8_t raw[sizeof(Cqe)];
    _memory->read(_cqBase + static_cast<std::uint64_t>(_cqHead) *
                                sizeof(Cqe),
                  sizeof(Cqe), raw);
    Cqe cqe = fromBytes<Cqe>(raw);
    if (cqe.phase() != _phase)
        return std::nullopt;
    _cqHead = static_cast<std::uint16_t>((_cqHead + 1) % _entries);
    if (_cqHead == 0)
        _phase = !_phase;
    return cqe;
}

Sqe
QueueRings::createCq() const
{
    Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoCq);
    sqe.prp1 = _cqBase;
    // QSIZE - 1 | QID; then IV in the high half | IEN | PC.
    sqe.cdw10 = (static_cast<std::uint32_t>(_entries - 1) << 16) | _qid;
    sqe.cdw11 = (static_cast<std::uint32_t>(_qid) << 16) | 0x3;
    return sqe;
}

Sqe
QueueRings::createSq(std::uint8_t prio) const
{
    Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoSq);
    sqe.prp1 = _sqBase;
    // QSIZE - 1 | QID; then CQID in the high half | QPRIO | PC.
    sqe.cdw10 = (static_cast<std::uint32_t>(_entries - 1) << 16) | _qid;
    sqe.cdw11 = (static_cast<std::uint32_t>(_qid) << 16) |
                (static_cast<std::uint32_t>(prio & 0x3) << 1) | 0x1;
    return sqe;
}

std::array<RegWrite, 4>
QueueRings::enable() const
{
    std::uint64_t aqa = (static_cast<std::uint64_t>(_entries - 1) << 16) |
                        (_entries - 1u);
    return {{{kRegAqa, aqa},
             {kRegAsq, _sqBase},
             {kRegAcq, _cqBase},
             {kRegCc, kCcEnable}}};
}

} // namespace bms::nvme
