/**
 * @file
 * Initiator side of one NVMe submission/completion queue pair.
 *
 * Both faces of BM-Store drive NVMe queues as stock initiators: the
 * tenant's kernel driver posts to a front function's rings in host
 * memory, and each host adaptor posts to its back-end SSD's rings in
 * chip memory. This module is the one copy of how an initiator does
 * it. An SQE goes in at the SQ tail; a CQE comes out at the CQ head
 * once its phase tag marks it new; a command holds a CID while it is
 * in flight, and a command that finds none free waits for one. The
 * caller rings each doorbell through its own MMIO path, at its own
 * instant, with the register write this module hands back.
 *
 * A ring of N entries holds at most N - 1 commands. With N in it the
 * tail would equal the head, which the controller reads as an empty
 * queue (NVMe base specification, "Full Queue").
 *
 * An SQ page keeps its backing only while a command written into it
 * is outstanding. Once the last one completes, a page that lies wholly
 * inside the SQ and does not hold the tail goes back to memory
 * (pcie::MemoryIf::release), and the next SQE written there carves a
 * fresh one. The CQE's SQ head does not free a slot: the controller
 * moves its head when it issues a fetch, but reads the bytes only when
 * that DMA lands, so a CQE can report a head past an SQE still being
 * read. CQ pages always stay: a consumed CQE's stale phase tag is what
 * tells the initiator its slot holds nothing new.
 */

#ifndef BMS_NVME_QUEUE_PAIR_HH
#define BMS_NVME_QUEUE_PAIR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "nvme/defs.hh"
#include "pcie/types.hh"
#include "sim/check.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"

namespace bms::nvme {

/** One BAR0 register write. */
struct RegWrite
{
    std::uint64_t offset = 0;
    std::uint64_t value = 0;
};

/** The ring half: an SQ and a CQ of @p entries each in @p memory. */
class QueueRings
{
  public:
    QueueRings(pcie::MemoryIf &memory, std::uint16_t qid,
               std::uint16_t entries, std::uint64_t sq_base,
               std::uint64_t cq_base);

    std::uint16_t qid() const { return _qid; }
    std::uint16_t entries() const { return _entries; }

    /** Write @p sqe as command @p cid at the SQ tail; returns the SQ
     *  doorbell write. */
    RegWrite push(Sqe sqe, std::uint16_t cid);
    /** Pop the CQE at the CQ head if its phase tag marks it new. */
    std::optional<Cqe> pop();

    RegWrite sqDoorbell() const { return {sqDoorbellOffset(_qid), _sqTail}; }
    RegWrite cqDoorbell() const { return {cqDoorbellOffset(_qid), _cqHead}; }

    /** Start over on the same rings. The owner clears the CQ memory
     *  first, so no old CQE reads as new. */
    void
    reset()
    {
        _sqTail = _cqHead = 0;
        _phase = true;
    }

    /** Create I/O CQ for this pair, interrupting on vector qid. */
    Sqe createCq() const;
    /** Create I/O SQ for this pair into CQ qid, in WRR class @p prio. */
    Sqe createSq(std::uint8_t prio = kQPrioMedium) const;
    /** AQA, ASQ, ACQ, then CC.EN: enable a controller with this pair
     *  as its admin queue. */
    std::array<RegWrite, 4> enable() const;

  protected:
    /** Count the SQ tail slot outstanding until retire(); returns it.
     *  Call right before push() writes there. */
    std::uint16_t hold();
    /** The command written at SQ slot @p slot completed. Release its
     *  page once no command in it is outstanding, unless the page
     *  holds the SQ tail or is shared with other data. */
    void retire(std::uint16_t slot);

  private:
    /** Memory page (absolute index) of SQ slot @p slot. */
    std::uint64_t
    sqPage(std::uint16_t slot) const
    {
        return (_sqBase + static_cast<std::uint64_t>(slot) * sizeof(Sqe)) /
               sim::SparseMemory::kPageBytes;
    }
    /** The outstanding count of @p slot's page, or null when that page
     *  also holds other data. */
    std::uint16_t *outstanding(std::uint16_t slot);

    pcie::MemoryIf *_memory;
    std::uint64_t _sqBase;
    std::uint64_t _cqBase;
    std::uint16_t _qid;
    std::uint16_t _entries;
    std::uint16_t _sqTail = 0;
    std::uint16_t _cqHead = 0;
    bool _phase = true;
    /** First memory page wholly inside the SQ, and how many are. */
    std::uint64_t _wholeFirst = 0;
    std::uint32_t _wholePages = 0;
    /** Outstanding commands written into each whole SQ page, sized at
     *  the first hold(). A slot the controller has fetched can be
     *  written again before its command completes, so a count can pass
     *  64; it stays below the ring's entries. */
    std::vector<std::uint16_t> _outstanding;
};

/** An SQE and the handler for its completion. */
struct Command
{
    Sqe sqe;
    std::function<void(const Cqe &)> done;
};

/**
 * A QueueRings plus the CIDs of its commands. @p Cmd is what the
 * caller keeps of a command while it holds a CID or waits for one.
 * CIDs go out most recently released first, then the lowest never
 * used, so only as many as were ever in flight at once hold a slot.
 */
template <typename Cmd>
class QueuePair : public QueueRings
{
  public:
    using QueueRings::QueueRings;

    /** Give @p cmd a CID and return it, or park @p cmd until a
     *  completion frees one. */
    std::optional<std::uint16_t>
    admit(Cmd cmd)
    {
        std::optional<std::uint16_t> cid = takeCid();
        if (cid)
            _slots[*cid].cmd = std::move(cmd);
        else
            _parked.push_back(std::move(cmd));
        return cid;
    }

    /** The command holding @p cid. */
    Cmd &operator[](std::uint16_t cid) { return _slots[cid].cmd; }

    /** Write @p sqe as command @p cid (which must hold it, once) at the
     *  SQ tail; its slot stays outstanding until complete(@p cid). */
    RegWrite
    push(Sqe sqe, std::uint16_t cid)
    {
        BMS_ASSERT(cid < _slots.size() && _slots[cid].busy &&
                       _slots[cid].sqSlot == kUnwritten,
                   "push of CID ", cid, " not admitted or already written "
                   "on queue ", qid());
        _slots[cid].sqSlot = hold();
        return QueueRings::push(sqe, cid);
    }

    /** Commands holding a CID. */
    std::uint32_t inflight() const { return _slots.live(); }

    /**
     * Complete the command holding @p cid, in this order: free the
     * CID, hand the command to @p run, then give a free CID to the
     * oldest parked command and hand that CID to @p issue.
     */
    template <typename Run, typename Issue>
    void
    complete(std::uint16_t cid, Run &&run, Issue &&issue)
    {
        BMS_ASSERT(cid < _slots.size() && _slots[cid].busy,
                   "completion for CID ", cid, " not in flight on queue ",
                   qid());
        Cmd cmd = std::move(_slots[cid].cmd);
        std::uint16_t sq_slot = _slots[cid].sqSlot;
        _slots[cid] = Slot{};
        _slots.free(cid);
        if (sq_slot != kUnwritten)
            retire(sq_slot);
        run(std::move(cmd));
        if (_parked.empty())
            return;
        if (std::optional<std::uint16_t> next = takeCid()) {
            _slots[*next].cmd = std::move(_parked.front());
            _parked.pop_front();
            issue(*next);
        }
    }

    /** Start over on the same rings with every CID unused. */
    void
    reset()
    {
        BMS_ASSERT(inflight() == 0 && _parked.empty(), "queue ", qid(),
                   " reset with commands outstanding");
        QueueRings::reset();
        _slots = {};
    }

  private:
    /** A Slot's sqSlot before push(): no ring slot has 65,535. */
    static constexpr std::uint16_t kUnwritten = 0xffff;

    struct Slot
    {
        bool busy = false;
        std::uint16_t sqSlot = kUnwritten; ///< where push() wrote it
        Cmd cmd;
    };

    std::optional<std::uint16_t>
    takeCid()
    {
        if (_slots.live() + 1 >= entries())
            return std::nullopt;
        const auto cid = static_cast<std::uint16_t>(_slots.open());
        _slots[cid].busy = true;
        return cid;
    }

    sim::RecordPool<Slot> _slots; ///< by CID
    std::deque<Cmd> _parked;      ///< waiting for a CID, oldest first
};

} // namespace bms::nvme

#endif // BMS_NVME_QUEUE_PAIR_HH
