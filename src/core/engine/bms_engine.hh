/**
 * @file
 * BMS-Engine — the FPGA data-path card of BM-Store (paper Fig. 3).
 *
 * One PCIe endpoint exposing kPfCount + kVfCount standard NVMe
 * functions to the host (SR-IOV layer) and driving up to ssdSlots
 * back-end NVMe SSDs through host adaptors. Composes:
 *
 *   SR-IOV layer      → FrontFunction[]       (front_function.hh)
 *   Target controller → TargetController      (target_controller.hh)
 *   I/O mapping       → LbaMapTable per NS    (lba_map.hh)
 *   QoS               → QosModule             (qos.hh)
 *   DMA routing       → GlobalPrp + adaptors  (global_prp.hh)
 *   Host adaptor      → HostAdaptor per SSD   (host_adaptor.hh)
 *
 * The configuration surface (bind/unbind, pause, counters) is what
 * the ARM BMS-Controller drives over AXI.
 */

#ifndef BMS_CORE_ENGINE_BMS_ENGINE_HH
#define BMS_CORE_ENGINE_BMS_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine/chip_memory.hh"
#include "core/engine/engine_config.hh"
#include "core/engine/front_function.hh"
#include "core/engine/host_adaptor.hh"
#include "core/engine/lba_map.hh"
#include "core/engine/migration_gate.hh"
#include "core/engine/qos.hh"
#include "core/engine/target_controller.hh"
#include "pcie/device.hh"
#include "pcie/link.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** One front-end namespace: identity, mapping table, QoS key. */
struct NsBinding
{
    pcie::FunctionId fn = 0;
    std::uint32_t nsid = 1;
    nvme::NamespaceInfo info;
    LbaMapTable map;

    NsBinding(pcie::FunctionId f, std::uint32_t id,
              nvme::NamespaceInfo i, LbaMapGeometry geom)
        : fn(f), nsid(id), info(i), map(geom)
    {}

    std::uint32_t key() const { return QosModule::key(fn, nsid); }
};

/** Maintenance flow that owns a back-end slot (paper §IV-D). */
enum class SlotOwner : std::uint8_t
{
    None,
    Upgrade, ///< firmware hot-upgrade
    Replace, ///< hot-plug replacement, its evacuation included
};

/** The BM-Store data-path card. */
class BmsEngine : public sim::SimObject, public pcie::PcieDeviceIf
{
  public:
    BmsEngine(sim::Simulator &sim, std::string name,
              EngineConfig cfg = EngineConfig());

    const EngineConfig &config() const { return _cfg; }

    /** @name PcieDeviceIf (host-facing SR-IOV endpoint). */
    /// @{
    int functionCount() const override { return _cfg.totalFunctions(); }
    void mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                   std::uint64_t value) override;
    std::uint64_t mmioRead(pcie::FunctionId fn,
                           std::uint64_t offset) override;
    void attached(pcie::PcieUpstreamIf &upstream) override;
    /// @}

    pcie::PcieUpstreamIf *hostUpstream() const { return _hostUp; }

    /** @name Back end. */
    /// @{
    /** Plug an SSD into back-end slot @p slot and bring it up. */
    void attachBackendSsd(int slot, pcie::PcieDeviceIf &ssd,
                          std::function<void()> ready);
    HostAdaptor &adaptor(int slot) { return *_adaptors.at(slot); }
    int ssdSlots() const { return static_cast<int>(_adaptors.size()); }

    /**
     * Slot catalog for the disaggregated tier: mark back-end slot
     * @p slot as a remote storage-node volume on node @p node. A
     * wide-format mapping entry naming this slot therefore resolves
     * to a (node, ssd, chunk) location.
     */
    void setSlotRemote(int slot, int node);
    bool isRemoteSlot(int slot) const;
    /** Storage node owning a remote slot (-1 for local slots). */
    int slotNode(int slot) const;

    /**
     * Give back-end slot @p slot to maintenance flow @p owner.
     * @return false, changing nothing, when a flow already holds it:
     *         one slot never runs two store/reload sequences or
     *         loses its disk under an upgrade's admin commands.
     */
    bool claimSlot(int slot, SlotOwner owner);
    void releaseSlot(int slot);
    SlotOwner slotOwner(int slot) const;
    /// @}

    /** @name Configuration surface driven by the BMS-Controller. */
    /// @{
    /**
     * Create a front-end namespace of @p size_blocks on function
     * @p fn. Chunks must then be programmed via binding().map (the
     * BMS-Controller's namespace manager does this).
     */
    NsBinding &bind(pcie::FunctionId fn, std::uint32_t nsid,
                    std::uint64_t size_blocks,
                    LbaMapGeometry geom = LbaMapGeometry());

    /** Remove a front-end namespace and its QoS state; commands its
     *  QoS buffer held fail at once (InvalidNamespace). */
    void unbind(pcie::FunctionId fn, std::uint32_t nsid);

    NsBinding *findBinding(pcie::FunctionId fn, std::uint32_t nsid);

    /** Visit every bound namespace in deterministic (key) order. */
    void forEachBinding(const std::function<void(NsBinding &)> &fn);

    /** Program a QoS threshold for (fn, nsid). */
    void setQos(pcie::FunctionId fn, std::uint32_t nsid, QosLimits limits);

    /**
     * Pause command fetching on every function with a namespace
     * mapped onto back-end SSD @p ssd_slot, then invoke @p stored
     * once the adaptor has drained (the "store I/O context" step of
     * the hot-upgrade flow).
     */
    void storeIoContext(int ssd_slot, std::function<void()> stored);

    /**
     * Reload I/O context: resume fetching on the functions that
     * @p ssd_slot's store paused, except those another slot's stored
     * context still holds.
     */
    void reloadIoContext(int ssd_slot);
    /// @}

    /** @name Modules (tests, monitor, ablation). */
    /// @{
    FrontFunction &function(pcie::FunctionId fn)
    {
        return *_functions.at(fn);
    }
    QosModule &qos() { return *_qos; }
    TargetController &targetController() { return *_target; }
    MigrationGate &migrationGate() { return *_gate; }
    ChipMemory &chipMemory() { return _chip; }
    /// @}

  private:
    /** Per-slot state: catalog entry (local SSD vs remote-node
     *  volume), maintenance owner and stored I/O context. */
    struct SlotInfo
    {
        bool remote = false;
        int node = -1;
        SlotOwner owner = SlotOwner::None;
        /** Per function: this slot's stored I/O context holds it
         *  paused. */
        std::vector<bool> holds;
    };

    EngineConfig _cfg;
    ChipMemory _chip;
    std::vector<SlotInfo> _slots;
    pcie::PcieUpstreamIf *_hostUp = nullptr;
    std::vector<std::unique_ptr<FrontFunction>> _functions;
    /** Per function, how many stored slots hold it paused. */
    std::vector<int> _pausingSlots;
    /** Shared x8 back-end interfaces (one per SSD-slot pair). */
    std::vector<std::unique_ptr<pcie::PcieLink>> _ifaceLinks;
    std::vector<std::unique_ptr<HostAdaptor>> _adaptors;
    std::unique_ptr<QosModule> _qos;
    std::unique_ptr<MigrationGate> _gate;
    std::unique_ptr<TargetController> _target;
    std::unordered_map<std::uint32_t, std::unique_ptr<NsBinding>> _bindings;
    /** Shared card-DRAM busy cursor (store-and-forward ablation). */
    sim::Tick _dramBusy = 0;

    friend class TargetController;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_BMS_ENGINE_HH
