/**
 * @file
 * Single-function NVMe endpoint: the PCIe face every back-end device
 * model shares (SSD, ZNS SSD, remote volume).
 *
 * The endpoint owns one ControllerModel (function 0, child object
 * `<name>.ctrl`) exposing namespace 1, routes MMIO to its register
 * file, and hands fetched commands to the subclass. It also owns the
 * data path every device needs: PRP resolution (PRP list fetched over
 * the upstream link), per-segment DMA, and the namespace/LBA-range
 * check. Subclasses keep only their command semantics.
 *
 * A command is named by its controller record's handle; the endpoint
 * keeps the command's segments, PRP-list entries, segment countdown
 * and staged media pages on a slot of the same index. Every step a
 * subclass chains captures `this` and that handle.
 */

#ifndef BMS_NVME_ENDPOINT_HH
#define BMS_NVME_ENDPOINT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nvme/controller.hh"
#include "nvme/prp.hh"
#include "pcie/device.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"

namespace bms::nvme {

/** A single-function NVMe device with one namespace. */
class Endpoint : public sim::SimObject, public pcie::PcieDeviceIf
{
  public:
    /** @name PcieDeviceIf */
    /// @{
    int functionCount() const override { return 1; }
    void mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                   std::uint64_t value) override;
    std::uint64_t mmioRead(pcie::FunctionId fn,
                           std::uint64_t offset) override;
    /** Panics when the endpoint was pulled before. */
    void attached(pcie::PcieUpstreamIf &upstream) override;
    /** Marks the endpoint pulled. A subclass holding media drops it
     *  here; a remote volume holds none. */
    void detached() override;
    /// @}

    ControllerModel &controller() { return _ctrl; }
    const ControllerModel &controller() const { return _ctrl; }

  protected:
    /** A command is named by its controller record's handle. */
    using Handle = ControllerModel::Handle;

    /**
     * @param model Identify Controller model string
     * @param ns_blocks size of namespace 1 in logical blocks
     * @param store what transfer() moves data to and from; null moves
     *        no bytes (timing only)
     */
    Endpoint(sim::Simulator &sim, const std::string &name,
             std::string model, std::uint64_t ns_blocks,
             sim::SparseMemory *store = nullptr);

    /** Execute an NVM I/O command; must eventually complete it. */
    virtual void executeIo(Handle h) = 0;

    /**
     * Execute an admin command the controller does not handle itself.
     * The default rejects it exactly as ControllerModel does.
     */
    virtual void executeAdmin(Handle h);

    const Sqe &sqe(Handle h) const { return _ctrl.sqe(h); }

    void
    complete(Handle h, Status st, std::uint32_t dw0 = 0)
    {
        _ctrl.complete(h, st, dw0);
    }

    /**
     * Validate the command's namespace and [slba, slba + nlb) against
     * it; on failure complete the command (InvalidNamespace or
     * LbaOutOfRange) and return false.
     */
    bool checkRange(Handle h);

    /**
     * Resolve the command's PRPs into its DMA segments, fetching the
     * PRP list over the upstream link when present, then run @p next.
     */
    void resolveSegments(Handle h, std::function<void()> next);

    /**
     * DMA @p buf over the command's segments (@p to_host: device →
     * upstream) and run @p next once every segment has finished. Each
     * segment's data moves when that segment arrives. An empty @p buf
     * moves no real bytes (timing-only transfer).
     */
    void dmaSegments(Handle h, bool to_host, sim::DataOut buf,
                     std::function<void()> next);

    /**
     * Resolve the command's PRPs, then move its data between its
     * buffers and [off, off + data bytes) of the store, then run
     * @p next. Toward the host the pages are taken once the PRPs are
     * resolved, so a later write to the store cannot change what lands
     * upstream; from the host the store takes them once every segment
     * has arrived.
     */
    void transfer(Handle h, bool to_host, std::uint64_t off,
                  std::function<void()> next);

    /** The media offset the command's transfer() was given. */
    std::uint64_t transferOffset(Handle h) const { return _xfers[h]->off; }

  private:
    /** The controller, handing fetched commands back to the owner. */
    class Controller : public ControllerModel
    {
      public:
        Controller(sim::Simulator &sim, std::string name, Config cfg,
                   Endpoint &owner)
            : ControllerModel(sim, std::move(name), std::move(cfg)),
              _owner(owner)
        {}

        /** ControllerModel's own rejection of an admin opcode. */
        void reject(Handle h) { ControllerModel::executeAdmin(h); }

      protected:
        void executeIo(Handle h) override { _owner.executeIo(h); }
        void executeAdmin(Handle h) override { _owner.executeAdmin(h); }

      private:
        Endpoint &_owner;
    };

    /** A command's data path, on the slot of its controller record. */
    struct Xfer
    {
        explicit Xfer(sim::PageStore &pages) : staged(pages) {}

        /** Fetched PRP-list entries, and the segments they decode to. */
        std::vector<std::uint64_t> list;
        std::vector<DmaSegment> segs;
        /** Segments still moving. */
        std::size_t left = 0;
        bool toHost = false;
        /** transfer(): its media, offset and pages in transit. */
        sim::SparseMemory *media = nullptr;
        std::uint64_t off = 0;
        sim::SparseMemory staged;
        std::function<void()> resolved;
        std::function<void()> done;
    };

    /** @p h's slot, made on first use. */
    Xfer &xfer(Handle h);
    /** One DMA per segment of @p buf; `done` runs after the last. */
    void moveSegments(Handle h, sim::DataOut buf);
    void segmentDone(Handle h);

    Controller _ctrl;
    sim::SparseMemory *_store;
    std::vector<std::unique_ptr<Xfer>> _xfers;
    bool _detached = false;
};

} // namespace bms::nvme

#endif // BMS_NVME_ENDPOINT_HH
