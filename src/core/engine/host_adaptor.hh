/**
 * @file
 * Host Adaptor — the BMS-Engine's back-end NVMe initiator plus the
 * DMA request router (paper Fig. 3 modules 5 and 6, steps ③-⑥ of
 * Fig. 6).
 *
 * One adaptor drives one back-end SSD slot. It keeps the engine-side
 * SQ/CQ rings in chip memory, rings the SSD's doorbells over the
 * back-end link, and — crucially — implements pcie::PcieUpstreamIf
 * for the SSD so that every SSD-initiated DMA passes through the
 * router: chip-window addresses are served locally (command/PRP-list
 * fetches, CQE posts), while global-PRP-tagged addresses are stripped
 * of their function id and forwarded to the corresponding host PF/VF
 * with cut-through timing (zero-copy). A store-and-forward ablation
 * stages data in engine DRAM instead.
 */

#ifndef BMS_CORE_ENGINE_HOST_ADAPTOR_HH
#define BMS_CORE_ENGINE_HOST_ADAPTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine/chip_memory.hh"
#include "core/engine/engine_config.hh"
#include "nvme/defs.hh"
#include "nvme/queue_pair.hh"
#include "pcie/device.hh"
#include "pcie/link.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Back-end initiator + DMA router for one SSD slot. */
class HostAdaptor : public sim::SimObject, public pcie::PcieUpstreamIf
{
  public:
    using CqeHandler = std::function<void(const nvme::Cqe &)>;

    /**
     * @param shared_dram_busy engine-wide DRAM busy cursor (ablation)
     * @param iface_link the x8 card interface this slot's x4 link
     *        hangs off (two SSD slots share one interface on the
     *        production board); may be null for standalone tests
     */
    HostAdaptor(sim::Simulator &sim, std::string name,
                std::uint8_t ssd_slot, ChipMemory &chip,
                const EngineConfig &cfg,
                sim::Tick *shared_dram_busy = nullptr,
                pcie::PcieLink *iface_link = nullptr);

    /** Host-side upstream of the engine card (set once attached). */
    void setHostUpstream(pcie::PcieUpstreamIf *up) { _hostUp = up; }

    /** Plug an SSD into this back-end slot. */
    void attachSsd(pcie::PcieDeviceIf &ssd);

    /**
     * Remove the SSD (hot-plug) and tell it so: a pulled disk gives
     * its media pages back. Caller must have drained I/O.
     */
    void detachSsd();

    bool hasSsd() const { return _ssd != nullptr; }
    pcie::PcieDeviceIf *ssd() const { return _ssd; }

    /** Bring up the SSD controller and the deep back-end IO queue. */
    void init(std::function<void()> ready);

    bool ready() const { return _ready; }

    /** Back-end namespace capacity discovered at init. */
    std::uint64_t capacityBytes() const { return _capacity; }

    /**
     * Submit an already-rewritten I/O SQE (physical LBA, global
     * PRPs). @p done fires with the back-end CQE.
     */
    void submitIo(const nvme::Sqe &sqe, CqeHandler done);

    /** Submit an admin command to the SSD (firmware upgrade etc.). */
    void adminCommand(const nvme::Sqe &sqe, CqeHandler done);

    /** Commands submitted to the SSD and not yet completed. */
    std::uint32_t
    inflight() const
    {
        return _admin.inflight() + _io.inflight();
    }

    /** Invoke @p cb once inflight() reaches zero. */
    void whenDrained(std::function<void()> cb);

    /** @name Router / link statistics. */
    /// @{
    std::uint64_t routedToHostBytes() const { return _routedHostBytes; }
    std::uint64_t chipAccessBytes() const { return _chipBytes; }
    std::uint64_t completedIos() const { return _completedIos; }
    pcie::PcieLink &backLink() { return _backLink; }
    /// @}

    /** @name PcieUpstreamIf — SSD-initiated traffic enters here. */
    /// @{
    void dmaRead(std::uint64_t addr, std::uint32_t len, sim::DataOut out,
                 std::function<void()> done) override;
    void dmaWrite(std::uint64_t addr, std::uint32_t len, sim::DataIn data,
                  std::function<void()> done) override;
    void msix(pcie::FunctionId fn, std::uint16_t vector) override;
    /// @}

  private:
    using Ring = nvme::QueuePair<nvme::Command>;

    void ssdMmio(nvme::RegWrite w);
    void push(Ring &ring, const nvme::Sqe &sqe, CqeHandler done);
    /** Write the command holding @p cid at the SQ tail and ring. */
    void issue(Ring &ring, std::uint16_t cid);
    void scanCq(Ring &ring);

    /** Reserve the slot link and the shared x8 interface (if any)
     *  for a transfer toward the SSD; returns the finish tick. */
    sim::Tick reserveDown(sim::Tick start, std::uint64_t bytes);
    /** Same, toward the engine. */
    sim::Tick reserveUp(sim::Tick start, std::uint64_t bytes);
    void routeToHost(bool to_host, std::uint64_t addr, std::uint32_t len,
                     sim::DataOut rbuf, sim::DataIn wbuf,
                     std::function<void()> done);
    void checkDrained();

    std::uint8_t _slot;
    ChipMemory &_chip;
    EngineConfig _cfg;
    pcie::PcieLink _backLink;
    pcie::PcieLink *_ifaceLink = nullptr;
    pcie::PcieUpstreamIf *_hostUp = nullptr;
    pcie::PcieDeviceIf *_ssd = nullptr;

    bool _ready = false;
    std::uint64_t _capacity = 0;
    /** Chip block of the identify page and both rings: allocated
     *  once, cleared at every bring-up. */
    std::uint64_t _block;
    Ring _admin;
    Ring _io;

    // Store-and-forward ablation: engine DRAM staging channel. The
    // DRAM is one shared card resource; the engine hands every
    // adaptor the same busy-until cursor.
    sim::Tick _dramBusyLocal = 0;
    sim::Tick *_dramBusy = &_dramBusyLocal;

    std::vector<std::function<void()>> _drainWaiters;
    std::uint64_t _routedHostBytes = 0;
    std::uint64_t _chipBytes = 0;
    std::uint64_t _completedIos = 0;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_HOST_ADAPTOR_HH
