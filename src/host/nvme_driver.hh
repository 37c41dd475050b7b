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
#include <functional>
#include <optional>
#include <vector>

#include "host/block.hh"
#include "host/cpu.hh"
#include "host/host_memory.hh"
#include "host/interrupts.hh"
#include "host/platform_profile.hh"
#include "nvme/defs.hh"
#include "nvme/queue_pair.hh"
#include "pcie/root_port.hh"
#include "sim/simulator.hh"

namespace bms::host {

/** Interrupt-driven NVMe driver bound to one PCIe function. */
class NvmeDriver : public sim::SimObject, public BlockDeviceIf
{
  public:
    /** Largest data transfer of one command (MDTS). */
    static constexpr std::uint32_t kMaxIoBytes = 2 * 1024 * 1024;

    struct Config
    {
        std::uint16_t ioQueues = 4;
        /** Entries per IO ring; a ring holds queueDepth - 1 commands. */
        std::uint16_t queueDepth = 1024;
        std::uint32_t nsid = 1;
        /**
         * Per-queue QPRIO (WRR class; see nvme): IO queue i uses
         * sqPriorities[i % size()]. Empty = all medium.
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
    /** A request holding a CID, and its SQE once issueIo() built it
     *  (the deferred ring reads it there). */
    struct IoCmd
    {
        BlockRequest req;
        nvme::Sqe sqe;
    };

    /** An IO queue: its rings and CIDs, and per CID a PRP-list page
     *  then a data slot, at a fixed stride from slotBase. */
    struct IoQueue : nvme::QueuePair<IoCmd>
    {
        IoQueue(HostMemory &mem, std::uint16_t qid, std::uint16_t entries,
                std::uint64_t sq_base, std::uint64_t cq_base,
                std::uint64_t slot_base)
            : QueuePair(mem, qid, entries, sq_base, cq_base),
              slotBase(slot_base)
        {}

        std::uint64_t slotBase;
    };

    /** Create IO queues qid..ioQueues one after another, then ready().
     *  Plain recursion — a self-capturing shared std::function would
     *  be a reference cycle and leak (caught by LeakSanitizer). */
    void createIoQueuesFrom(std::uint16_t qid, std::function<void()> ready);
    void issueAdmin(std::uint16_t cid);
    void adminIrq();
    void ioIrq(std::uint16_t qid);
    /** Build the SQE of the request holding @p cid, charge the submit
     *  CPU cost, then write it at the tail and ring. */
    void issueIo(IoQueue &q, std::uint16_t cid);
    void mmio(nvme::RegWrite w);
    /** Write a CQ-head doorbell. Nothing waits for it to arrive, so it
     *  goes straight into the function's register file as written,
     *  without a link-arrival event. */
    void cqHead(nvme::RegWrite w);

    /** A request's completion, from its CQE until its done runs. */
    struct Completion
    {
        std::function<void(bool ok)> done;
        bool ok = false;
    };

    HostMemory &_mem;
    InterruptController &_irq;
    pcie::RootPort &_port;
    CpuSet &_cpus;
    pcie::FunctionId _fn;
    Config _cfg;

    bool _ready = false;
    std::uint64_t _capacity = 0;

    /** Built at init, once its rings are allocated. */
    std::optional<nvme::QueuePair<nvme::Command>> _admin;
    std::uint64_t _adminDataPage = 0;
    std::vector<IoQueue> _queues; // qid 1..ioQueues at index qid - 1
    sim::RecordPool<Completion> _completions{sim()};
    int _rrQueue = 0;
    std::uint64_t _interrupts = 0;
};

} // namespace bms::host

#endif // BMS_HOST_NVME_DRIVER_HH
