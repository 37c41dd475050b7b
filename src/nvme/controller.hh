/**
 * @file
 * Reusable NVMe controller state machine (device side).
 *
 * Implements the register file (CC/CSTS/AQA/ASQ/ACQ + doorbells),
 * admin/IO queue management, SQE fetching over DMA, and CQE posting
 * with MSI-X — everything common between a back-end SSD controller
 * and the 128 virtual NVMe controllers the BMS-Engine's SR-IOV layer
 * exposes to the host. Subclasses implement command execution.
 */

#ifndef BMS_NVME_CONTROLLER_HH
#define BMS_NVME_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nvme/defs.hh"
#include "pcie/device.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace bms::nvme {

/** How a controller picks the next SQ to fetch from. */
enum class ArbitrationMode : std::uint8_t
{
    /** Legacy: drain each SQ fully as its doorbell rings. */
    Immediate,
    /** NVMe round-robin: equal bursts across all IO SQs. */
    RoundRobin,
    /**
     * NVMe weighted round-robin: urgent class is strict-priority,
     * high/medium/low receive bursts in the ratio 4:2:1.
     */
    WeightedRoundRobin,
};

/** Static description of one namespace (kBlockSize blocks). */
struct NamespaceInfo
{
    std::uint32_t nsid = 0;
    std::uint64_t sizeBlocks = 0;
};

/**
 * NVMe controller base. Owns queue state; delegates execution of
 * fetched commands to the subclass. All upstream traffic (SQE fetch,
 * CQE post, MSI-X) is timed through the PcieUpstreamIf the owning
 * device was attached with.
 *
 * Every command has one record, named by a Handle, from the fetch
 * that brings its SQE in until the posted write of its CQE lands; the
 * subclass executes and completes commands by handle.
 */
class ControllerModel : public sim::SimObject
{
  public:
    /** Names one command in flight: its record's handle. */
    using Handle = std::uint32_t;

    struct Config
    {
        pcie::FunctionId fn = 0;
        std::uint16_t maxIoQueues = 64;
        /**
         * Internal latency from SQE arrival to execution start (the
         * BMS-Engine front functions' frontPipelineDelay; zero on
         * back-end devices).
         */
        sim::Tick cmdProcDelay = 0;
        /** Serial/model identity reported by Identify Controller. */
        std::string model = "BMS-SIM-CTRL";
        /** SQ fetch arbitration (admin SQ is always strict-priority). */
        ArbitrationMode arb = ArbitrationMode::Immediate;
        /** Max SQEs fetched from one SQ per arbitration service. */
        std::uint8_t arbBurst = 4;
        /**
         * Doorbell batching window: SQ doorbells rung within this
         * many ticks of a pending arbitration pass coalesce into it
         * instead of triggering their own fetch. 0 still coalesces
         * same-tick rings (the pass runs as a separate event).
         */
        sim::Tick doorbellBatchDelay = 0;
    };

    ControllerModel(sim::Simulator &sim, std::string name, Config cfg);

    /** Upstream services; must be set before the host enables CC. */
    void setUpstream(pcie::PcieUpstreamIf *up) { _up = up; }
    pcie::PcieUpstreamIf *upstream() const { return _up; }

    pcie::FunctionId functionId() const { return _cfg.fn; }

    /** @name Register file entry points (from the owning device). */
    /// @{
    void regWrite(std::uint64_t offset, std::uint64_t value);
    std::uint64_t regRead(std::uint64_t offset) const;
    /// @}

    /** @name Namespace table (managed by owner / BMS-Controller). */
    /// @{
    void addNamespace(const NamespaceInfo &ns);
    void removeNamespace(std::uint32_t nsid);
    const NamespaceInfo *findNamespace(std::uint32_t nsid) const;
    const std::vector<NamespaceInfo> &namespaces() const { return _nses; }
    /// @}

    bool enabled() const { return _enabled; }

    /**
     * Stop fetching new SQEs (doorbells still latch tails). Used for
     * resets and by the hot-upgrade I/O-context store. Outstanding
     * commands keep executing.
     */
    void pauseFetch();

    /** Resume fetching; drains any tails that advanced while paused. */
    void resumeFetch();

    bool fetchPaused() const { return _fetchPaused; }

    /** Commands dispatched and not yet completed. */
    std::uint32_t inflight() const { return _inflight; }

    /** @name I/O accounting (read by the BMS I/O monitor). */
    /// @{
    std::uint64_t readOps() const { return _readOps; }
    std::uint64_t writeOps() const { return _writeOps; }
    std::uint64_t readBytes() const { return _readBytes; }
    std::uint64_t writeBytes() const { return _writeBytes; }
    /// @}

    /** Snapshot of one submission queue for monitoring and tests. */
    struct SqSnapshot
    {
        bool valid = false;
        std::uint8_t prio = kQPrioMedium;
        std::uint32_t backlog = 0;    ///< SQEs rung but not yet fetched
        std::uint32_t maxBacklog = 0; ///< high-water mark of backlog
        std::uint64_t fetched = 0;    ///< SQEs fetched since creation
    };

    /** @name Arbitration / multi-queue accounting. */
    /// @{
    /** Number of valid IO submission queues (excludes admin). */
    std::uint16_t ioSqCount() const;
    /** Per-SQ snapshot; @p sqid may be any qid < 1 + maxIoQueues. */
    SqSnapshot sqSnapshot(std::uint16_t sqid) const;
    /** Deepest un-fetched backlog any IO SQ ever reached. */
    std::uint32_t maxSqBacklog() const;
    /** Arbitration passes executed. */
    std::uint64_t arbRounds() const { return _arbRounds; }
    /** Rings absorbed by an already-pending arbitration pass. */
    std::uint64_t doorbellsCoalesced() const { return _doorbellsCoalesced; }
    /** SQE fetch DMAs issued on IO SQs (one per SQE in Immediate
     *  mode, one per burst when arbitrated). */
    std::uint64_t fetchBatches() const { return _fetchBatches; }
    /** Total SQEs fetched from IO SQs. */
    std::uint64_t fetchedSqes() const { return _fetchedSqes; }
    /// @}

    /** The SQE of command @p h as fetched, and the SQ it came from. */
    const Sqe &sqe(Handle h) const { return _cmds[h].sqe; }
    std::uint16_t sqid(Handle h) const { return _cmds[h].sqid; }

    /**
     * Post command @p h's completion. Public so the owning device
     * model (which executes commands on the controller's behalf) can
     * finish them. The record lives until the CQE write lands.
     */
    void complete(Handle h, Status st, std::uint32_t dw0 = 0);

    /**
     * DMA the page @p data (zeroes when null) into the host buffer
     * command @p h's (page-aligned, single-page) PRP1 names, then
     * complete it with Success: Identify, log pages, zone reports.
     */
    void sendPage(Handle h, const std::uint8_t *data);

  protected:
    /**
     * Execute an admin command the base class does not handle
     * (queue management, identify, set/get features are built in).
     * Must eventually call complete().
     */
    virtual void executeAdmin(Handle h);

    /** Execute an NVM I/O command; must eventually call complete(). */
    virtual void executeIo(Handle h) = 0;

    /** Hook invoked when the host enables / disables the controller. */
    virtual void onEnabled() {}
    virtual void onDisabled() {}

  private:
    struct SubQueue
    {
        bool valid = false;
        std::uint64_t base = 0;
        std::uint16_t size = 0;
        std::uint16_t head = 0;
        std::uint16_t tail = 0; ///< latest doorbell value
        std::uint16_t cqid = 0;
        std::uint8_t prio = kQPrioMedium; ///< QPRIO (WRR class)
        std::uint32_t maxBacklog = 0;     ///< deepest un-fetched backlog
        std::uint64_t fetched = 0;        ///< SQEs fetched lifetime

        std::uint32_t
        backlog() const
        {
            if (!valid || size == 0)
                return 0;
            return (tail + size - head) % size;
        }
    };

    struct ComplQueue
    {
        bool valid = false;
        std::uint64_t base = 0;
        std::uint16_t size = 0;
        std::uint16_t tail = 0;
        std::uint16_t headDoorbell = 0;
        bool phase = true;
        bool irqEnabled = false;
        std::uint16_t vector = 0;
    };

    struct Cmd
    {
        Sqe sqe;
        std::uint16_t sqid = 0;
        /** Fetch DMA bytes: a burst, on the record of its first SQE. */
        std::vector<std::uint8_t> fetch;
        /** An admin command's data page, until the record is freed. */
        std::vector<std::uint8_t> page;
        /** The CQE on its way, and the interrupt its landing raises. */
        std::array<std::uint8_t, sizeof(Cqe)> cqe{};
        bool irq = false;
        std::uint16_t vector = 0;
    };

    /** Sentinel for serviceRound(): any priority class qualifies. */
    static constexpr std::uint8_t kPrioAny = 0xff;

    void enable();
    void disable();
    void doorbell(const DoorbellRef &ref, std::uint64_t value);
    /** Fetch every SQE rung on @p sqid, one DMA each: the admin SQ,
     *  and every SQ in Immediate mode. */
    void fetchEach(std::uint16_t sqid);
    /**
     * A fetched SQE: dispatch it after cmdProcDelay (inline when the
     * delay is zero, as on back-end SSDs).
     */
    void fetched(Handle h);
    void dispatch(Handle h);
    void adminBuiltin(Handle h);
    void identify(Handle h);
    /** Request an arbitration pass (doorbell-batched). */
    void signalArbitration();
    /** One arbitration pass over the IO SQs; re-arms while backlogged. */
    void arbitrate();
    /**
     * Service SQs of class @p prio (kPrioAny matches all) in
     * round-robin order from @p *cursor over qids 1 to the highest
     * valid one, one burst per service, until @p credits services are
     * spent or a full cycle finds no backlog.
     * @return services performed.
     */
    std::uint32_t serviceRound(std::uint8_t prio, std::uint32_t credits,
                               std::uint16_t *cursor);
    /**
     * Fetch up to @p maxN SQEs from @p sqid as one coalesced DMA
     * (clamped at the ring-wrap point; the remainder waits for the
     * next service). Dispatch order within the SQ is preserved.
     */
    void fetchBurst(std::uint16_t sqid, std::uint32_t maxN);

    Config _cfg;
    pcie::PcieUpstreamIf *_up = nullptr;
    bool _enabled = false;
    bool _fetchPaused = false;
    std::uint64_t _aqa = 0, _asq = 0, _acq = 0, _cc = 0;

    std::vector<SubQueue> _sqs;
    std::vector<ComplQueue> _cqs;
    std::vector<NamespaceInfo> _nses;
    sim::RecordPool<Cmd> _cmds{sim()};

    std::uint32_t _inflight = 0;
    std::uint64_t _readOps = 0, _writeOps = 0;
    std::uint64_t _readBytes = 0, _writeBytes = 0;

    /** Highest valid IO SQ qid (0: none); arbitration scans no
     *  further. */
    std::uint16_t _sqTop = 0;
    bool _arbScheduled = false;
    std::uint16_t _rrCursor = 1;          ///< plain-RR position
    std::uint16_t _wrrCursor[4] = {1, 1, 1, 1}; ///< per-class positions
    std::uint64_t _arbRounds = 0;
    std::uint64_t _doorbellsCoalesced = 0;
    std::uint64_t _fetchBatches = 0;
    std::uint64_t _fetchedSqes = 0;
};

} // namespace bms::nvme

#endif // BMS_NVME_CONTROLLER_HH
