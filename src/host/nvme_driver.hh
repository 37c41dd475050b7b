/**
 * @file
 * Kernel NVMe driver model (interrupt driven).
 *
 * This is the *stock* driver of the paper's transparency story: it
 * speaks only standard NVMe (admin bring-up, SQ/CQ rings in host
 * memory, PRPs, MSI-X completions) and therefore works unchanged
 * against a native SSD, a VFIO passthrough function, or a BM-Store
 * PF/VF. Software-path costs come from a PlatformProfile and are
 * charged to a CpuSet, which is how per-kernel differences and guest
 * vCPU ceilings arise.
 */

#ifndef BMS_HOST_NVME_DRIVER_HH
#define BMS_HOST_NVME_DRIVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "host/block.hh"
#include "host/cpu.hh"
#include "host/host_memory.hh"
#include "host/interrupts.hh"
#include "host/platform_profile.hh"
#include "nvme/defs.hh"
#include "pcie/root_port.hh"
#include "sim/simulator.hh"

namespace bms::host {

/** Interrupt-driven NVMe driver bound to one PCIe function. */
class NvmeDriver : public sim::SimObject, public BlockDeviceIf
{
  public:
    struct Config
    {
        std::uint16_t ioQueues = 4;
        std::uint16_t queueDepth = 1024;
        std::uint32_t maxIoBytes = 2 * 1024 * 1024;
        std::uint32_t nsid = 1;
        /** QPRIO requested for every IO SQ (WRR class; see nvme). */
        std::uint8_t sqPriority = nvme::kQPrioMedium;
        /**
         * Optional per-queue QPRIO override: IO queue i uses
         * sqPriorities[i % size()]. Empty = all sqPriority.
         */
        std::vector<std::uint8_t> sqPriorities;
        PlatformProfile profile;
    };

    NvmeDriver(sim::Simulator &sim, std::string name, HostMemory &memory,
               InterruptController &irq, pcie::RootPort &port,
               CpuSet &cpus, pcie::FunctionId fn, Config cfg);

    /**
     * Bring the controller up: admin queues, identify, IO queue
     * creation. @p ready fires when I/O can be submitted.
     */
    void init(std::function<void()> ready);

    /** @name BlockDeviceIf */
    /// @{
    void submit(BlockRequest req) override;
    std::uint64_t capacityBytes() const override { return _capacity; }
    /// @}

    bool ready() const { return _ready; }
    std::uint16_t ioQueues() const { return _cfg.ioQueues; }
    const PlatformProfile &profile() const { return _cfg.profile; }

    /** Interrupts taken (per-VM accounting). */
    std::uint64_t interruptCount() const { return _interrupts; }

    /**
     * Submit a raw admin command (firmware download/commit etc. —
     * used by tests and by management tooling on native disks).
     */
    void adminCommand(nvme::Sqe sqe,
                      std::function<void(const nvme::Cqe &)> done);

  private:
    /** The request a CID carries while it is in flight. */
    struct Slot
    {
        bool busy = false;
        BlockRequest req;
    };

    struct Queue
    {
        std::uint16_t qid = 0;
        std::uint16_t depth = 0;
        std::uint64_t sqBase = 0;
        std::uint64_t cqBase = 0;
        /** Per-CID PRP-list page, then data slot, at a fixed stride. */
        std::uint64_t slotBase = 0;
        std::uint16_t sqTail = 0;
        std::uint16_t cqHead = 0;
        bool cqPhase = true;
        /** By CID, grown to the highest CID handed out. */
        std::vector<Slot> slots;
        /** Released CIDs, handed out again before any fresh one. */
        std::vector<std::uint16_t> freeCids;
        /** Lowest CID never handed out. */
        std::uint16_t freshCid = 0;
        std::deque<BlockRequest> waitq;
        std::uint32_t inflight = 0;
    };

    /** Bytes from one cid's PRP-list page to the next one's. */
    std::uint64_t slotStride() const;
    /** The PRP-list page of @p cid; its data slot follows it. */
    std::uint64_t prpListAddr(const Queue &q, std::uint16_t cid) const;
    bool cidAvailable(const Queue &q) const;

    void setupAdminQueues();
    void createIoQueue(std::uint16_t qid, std::function<void()> then);
    /** Create IO queues qid..ioQueues one after another, then ready().
     *  Plain recursion — a self-capturing shared std::function would
     *  be a reference cycle and leak (caught by LeakSanitizer). */
    void createIoQueuesFrom(std::uint16_t qid, std::function<void()> ready);
    void adminIrq();
    void ioIrq(std::uint16_t qid);
    void pushToQueue(Queue &q, BlockRequest req);
    void ringDoorbell(Queue &q, const nvme::Sqe &sqe);
    void finishRequest(Queue &q, const nvme::Cqe &cqe,
                       sim::Tick irq_start);

    HostMemory &_mem;
    InterruptController &_irq;
    pcie::RootPort &_port;
    CpuSet &_cpus;
    pcie::FunctionId _fn;
    Config _cfg;

    bool _ready = false;
    std::uint64_t _capacity = 0;

    // Admin queue state.
    std::uint64_t _adminSqBase = 0, _adminCqBase = 0;
    std::uint16_t _adminDepth = 32;
    std::uint16_t _adminSqTail = 0, _adminCqHead = 0;
    bool _adminPhase = true;
    std::uint16_t _adminNextCid = 0;
    std::uint64_t _adminDataPage = 0;
    std::unordered_map<std::uint16_t,
                       std::function<void(const nvme::Cqe &)>>
        _adminPending;

    std::vector<Queue> _queues; // index 0 unused; 1..ioQueues
    int _rrQueue = 0;
    std::uint64_t _interrupts = 0;
};

} // namespace bms::host

#endif // BMS_HOST_NVME_DRIVER_HH
