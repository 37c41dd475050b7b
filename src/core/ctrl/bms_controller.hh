/**
 * @file
 * BMS-Controller — the ARM SoC control plane of BM-Store (paper
 * Fig. 3, right). Owns the management/maintenance services and the
 * MCTP/NVMe-MI out-of-band endpoint through which cloud operators
 * drive them without touching the tenant's host OS:
 *
 *   - namespace manager (chunk allocation, bind/attach, QoS)
 *   - I/O monitor (engine counter sampling over AXI)
 *   - hot-upgrade manager (SSD firmware without I/O interruption)
 *   - hot-plug manager (faulty-disk replacement, identities kept)
 */

#ifndef BMS_CORE_CTRL_BMS_CONTROLLER_HH
#define BMS_CORE_CTRL_BMS_CONTROLLER_HH

#include <functional>
#include <memory>

#include "core/ctrl/hot_plug.hh"
#include "core/ctrl/hot_upgrade.hh"
#include "core/ctrl/io_monitor.hh"
#include "core/ctrl/migration/migration_manager.hh"
#include "core/ctrl/namespace_manager.hh"
#include "core/ctrl/tiering/tiering_manager.hh"
#include "core/engine/bms_engine.hh"
#include "core/mgmt/mctp.hh"
#include "core/mgmt/nvme_mi.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Configuration of the ARM control plane. */
struct BmsControllerConfig
{
    sim::Tick monitorPeriod = sim::milliseconds(100);
    /** Chunk/table geometry for every namespace (tests shrink it). */
    LbaMapGeometry mapGeometry;
};

/** The ARM control plane of one BM-Store card. */
class BmsController : public sim::SimObject
{
  public:
    using Config = BmsControllerConfig;

    /** MCTP endpoint id of every card's controller (each card sits on
     *  its own channel). */
    static constexpr Eid kEid = 0x20;

    BmsController(sim::Simulator &sim, std::string name,
                  BmsEngine &engine, Config cfg = Config());

    BmsEngine &engine() { return _engine; }
    MctpEndpoint &endpoint() { return *_endpoint; }
    NamespaceManager &namespaces() { return _nsMgr; }
    IoMonitor &monitor() { return *_monitor; }
    HotUpgradeManager &hotUpgrade() { return *_hotUpgrade; }
    HotPlugManager &hotPlug() { return *_hotPlug; }
    MigrationManager &migration() { return *_migration; }
    TieringManager &tiering() { return *_tiering; }

    /**
     * Testbed hook fired when a `failNode` verb takes a storage node
     * down (the controller itself has no reference to the remote
     * machines; the testbed flips the StorageServer models).
     */
    void setNodeDownHook(std::function<void(int, bool)> hook)
    {
        _nodeDownHook = std::move(hook);
    }

    /**
     * Register the spare-disk supply used when a remote hot-plug
     * command arrives (the testbed provides fresh SsdDevice models).
     */
    void
    setSpareSsdProvider(std::function<pcie::PcieDeviceIf *(int)> provider)
    {
        _spareProvider = std::move(provider);
    }

    /**
     * Attach a back-end SSD and register its capacity with the
     * namespace manager once ready (testbed bring-up convenience).
     */
    void attachBackendSsd(int slot, pcie::PcieDeviceIf &ssd,
                          std::function<void()> ready);

    /** SSDs visible per slot (health reporting helper). */
    std::function<SlotHealth(int)> slotHealthProbe;

  private:
    void handleMessage(Eid src, MctpMsgType type,
                       std::vector<std::uint8_t> raw);
    void dispatch(Eid src, const MiMessage &req);
    void respond(Eid dest, const MiMessage &req, MiStatus status,
                 std::vector<std::uint8_t> payload = {});
    /** Answer with an outcome record; its `ok` picks the status. */
    template <class Outcome>
    void respondOutcome(Eid dest, const MiMessage &req,
                        const Outcome &outcome);
    /** A function id from the wire names a function of this card. */
    bool validFn(std::uint8_t fn) const;
    /** Per-slot occupancy (VendorDf and the ioStats tail). */
    std::vector<MiDfEntry> df() const;

    BmsEngine &_engine;
    std::unique_ptr<MctpEndpoint> _endpoint;
    NamespaceManager _nsMgr;
    std::unique_ptr<IoMonitor> _monitor;
    std::unique_ptr<HotUpgradeManager> _hotUpgrade;
    std::unique_ptr<HotPlugManager> _hotPlug;
    std::unique_ptr<MigrationManager> _migration;
    std::unique_ptr<TieringManager> _tiering;
    std::function<pcie::PcieDeviceIf *(int)> _spareProvider;
    std::function<void(int, bool)> _nodeDownHook;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_BMS_CONTROLLER_HH
