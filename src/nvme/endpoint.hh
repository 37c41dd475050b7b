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
 */

#ifndef BMS_NVME_ENDPOINT_HH
#define BMS_NVME_ENDPOINT_HH

#include <cstdint>
#include <functional>
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
    /**
     * @param model Identify Controller model string
     * @param ns_blocks size of namespace 1 in logical blocks
     */
    Endpoint(sim::Simulator &sim, const std::string &name,
             std::string model, std::uint64_t ns_blocks);

    /** Execute an NVM I/O command; must eventually complete it. */
    virtual void executeIo(const Sqe &sqe, std::uint16_t sqid) = 0;

    /**
     * Execute an admin command the controller does not handle itself.
     * The default rejects it exactly as ControllerModel does.
     */
    virtual void executeAdmin(const Sqe &sqe);

    /** Post the completion for (sqid, cid). */
    void
    complete(std::uint16_t sqid, std::uint16_t cid, Status st,
             std::uint32_t dw0 = 0)
    {
        _ctrl.complete(sqid, cid, st, dw0);
    }

    /**
     * Validate the command's namespace and [slba, slba + nlb) against
     * it; on failure complete the command (InvalidNamespace or
     * LbaOutOfRange) and return false.
     */
    bool checkRange(const Sqe &sqe, std::uint16_t sqid);

    /**
     * Resolve the command's PRPs into DMA segments, fetching the PRP
     * list over the upstream link when present.
     */
    void resolveSegments(const Sqe &sqe,
                         std::function<void(std::vector<DmaSegment>)> then);

    /**
     * DMA @p buf segment by segment (@p to_host: device → upstream)
     * and run @p done once every segment has finished. Each segment's
     * data moves when that segment arrives. An empty @p buf moves no
     * real bytes (timing-only transfer).
     */
    void dmaSegments(const std::vector<DmaSegment> &segs, bool to_host,
                     sim::DataOut buf, std::function<void()> done);

    /**
     * DMA [off, off+len) of @p media to the command's buffers. The
     * pages are taken now, the instant the data leaves the media, so
     * a later write to @p media cannot change what lands upstream. A
     * null @p media moves no bytes.
     */
    void dmaToHost(const std::vector<DmaSegment> &segs,
                   const sim::SparseMemory *media, std::uint64_t off,
                   std::uint64_t len, std::function<void()> done);

    /**
     * DMA the command's buffers into [off, off+len) of @p media, which
     * takes the pages once every segment has arrived, just before
     * @p done. A null @p media moves no bytes.
     */
    void dmaFromHost(const std::vector<DmaSegment> &segs,
                     sim::SparseMemory *media, std::uint64_t off,
                     std::uint64_t len, std::function<void()> done);

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
        void reject(const Sqe &sqe) { ControllerModel::executeAdmin(sqe); }

      protected:
        void
        executeIo(const Sqe &sqe, std::uint16_t sqid) override
        {
            _owner.executeIo(sqe, sqid);
        }

        void
        executeAdmin(const Sqe &sqe) override
        {
            _owner.executeAdmin(sqe);
        }

      private:
        Endpoint &_owner;
    };

    Controller _ctrl;
    bool _detached = false;
};

} // namespace bms::nvme

#endif // BMS_NVME_ENDPOINT_HH
