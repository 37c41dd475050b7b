/**
 * @file
 * Testbed builders — wire complete systems matching the paper's
 * experimental setups so benches and examples stay short:
 *
 *   - NativeTestbed: host + N directly-attached P4510s (baseline)
 *   - BmStoreTestbed: host + BM-Store card + N back-end P4510s +
 *     BMS-Controller + out-of-band console
 *   - VM helpers: VFIO / BM-Store VF / SPDK vhost tenants
 */

#ifndef BMS_HARNESS_TESTBEDS_HH
#define BMS_HARNESS_TESTBEDS_HH

#include <memory>
#include <string>
#include <vector>

#include "baselines/spdk_vhost.hh"
#include "core/ctrl/bms_controller.hh"
#include "core/engine/bms_engine.hh"
#include "core/mgmt/mgmt_console.hh"
#include "host/host_system.hh"
#include "host/nvme_driver.hh"
#include "remote/network.hh"
#include "remote/remote_device.hh"
#include "remote/storage_server.hh"
#include "ssd/ssd_device.hh"
#include "virt/vm.hh"
#include "virt/virtio_blk.hh"

namespace bms::harness {

/** Common knobs for every testbed. */
struct TestbedConfig
{
    int ssdCount = 1;
    std::uint64_t seed = 1;
    /**
     * Join an existing simulation instead of owning a private one
     * (fleet runs: many cards, one deterministic event queue). The
     * pointed-to Simulator must outlive the testbed; `seed` is
     * ignored when set.
     */
    sim::Simulator *sharedSim = nullptr;
    /**
     * Prefix for every component name ("card3." gives "card3.bms",
     * "card3.bssd0", ...). Required to keep names unique when
     * several testbeds share one simulation; empty for the classic
     * single-card world so all existing names are unchanged.
     */
    std::string namePrefix;
    host::HostConfig host;
    ssd::SsdDevice::Config ssd;
    /**
     * Per-slot SSD config overrides (index = back-end slot; slots
     * beyond the vector fall back to `ssd`). Fault-injection
     * testbeds use this to give each slot its own error/latency
     * knobs — e.g. one degraded disk among healthy ones.
     */
    std::vector<ssd::SsdDevice::Config> ssdOverrides;
    core::EngineConfig engine;
    /** BMS-Controller config (BmStoreTestbed only). */
    core::BmsControllerConfig ctrl;
    /**
     * Chunk size override in bytes (BmStoreTestbed only; 0 keeps the
     * geometry in `ctrl`). Tests and the fuzzer shrink chunks so a
     * migration's copy phase fits the simulated horizon.
     */
    std::uint64_t chunkBytes = 0;
    /** Driver shape used by attach helpers. */
    std::uint16_t ioQueues = 4;
    std::uint16_t queueDepth = 1024;
    /** Per-queue QPRIO cycle for tenant drivers (empty = medium). */
    std::vector<std::uint8_t> sqPriorities;
    /**
     * NativeTestbed: bind a host kernel driver to each disk. Set
     * false for VFIO experiments — passthrough requires the device
     * to be unbound from the host driver, exactly as on real
     * systems.
     */
    bool attachHostDrivers = true;

    /** @name Remote storage tier (BmStoreTestbed only). */
    /// @{
    /** Storage nodes behind the card; each gets its own link. */
    int remoteNodes = 0;
    /** Volumes exported per node — each takes one back-end slot. */
    int volumesPerNode = 1;
    std::uint64_t remoteVolumeBytes = sim::mib(64);
    remote::StorageServer::Config remoteServer;
    remote::NetworkProfile network;
    /// @}

    /** Effective SSD config for back-end slot @p slot. */
    const ssd::SsdDevice::Config &
    ssdConfig(int slot) const
    {
        auto i = static_cast<std::size_t>(slot);
        return i < ssdOverrides.size() ? ssdOverrides[i] : ssd;
    }
};

/** Base: owns the simulated world and the host. */
class TestbedBase
{
  public:
    explicit TestbedBase(const TestbedConfig &cfg);
    virtual ~TestbedBase() = default;

    sim::Simulator &sim() { return *_sim; }
    host::HostSystem &host() { return *_host; }
    const TestbedConfig &config() const { return _cfg; }

    /**
     * Run the simulation until @p pred is true, in @p step slices;
     * asserts if @p timeout elapses first (bring-up watchdog).
     */
    void runUntilTrue(const std::function<bool()> &pred,
                      sim::Tick timeout = sim::seconds(2),
                      sim::Tick step = sim::milliseconds(1));

  protected:
    /** Component name with the configured prefix applied. */
    std::string nm(const std::string &base) const
    {
        return _cfg.namePrefix + base;
    }

    TestbedConfig _cfg;
    /** Owned only when cfg.sharedSim is null. */
    std::unique_ptr<sim::Simulator> _ownedSim;
    /** The world this testbed lives in (owned or shared). */
    sim::Simulator *_sim = nullptr;
    host::HostSystem *_host = nullptr;
};

/** Host + directly attached SSDs, stock kernel driver per disk. */
class NativeTestbed : public TestbedBase
{
  public:
    explicit NativeTestbed(const TestbedConfig &cfg);

    ssd::SsdDevice &ssd(int i) { return *_ssds.at(i); }
    host::NvmeDriver &driver(int i) { return *_drivers.at(i); }
    int ssdCount() const { return static_cast<int>(_ssds.size()); }

    /**
     * Attach a VFIO guest to disk @p i: a fresh VM whose stock NVMe
     * driver owns the whole device (no sharing — the VFIO tradeoff).
     */
    struct VfioVm
    {
        virt::VirtualMachine *vm = nullptr;
        host::NvmeDriver *driver = nullptr;
    };
    VfioVm addVfioVm(int disk, virt::VmConfig vm_cfg = virt::VmConfig());

  private:
    std::vector<ssd::SsdDevice *> _ssds;
    std::vector<host::NvmeDriver *> _drivers;
    std::vector<pcie::RootPort *> _ports;
    int _vmIndex = 0;
};

/** Host + BM-Store card + back-end SSDs + control plane. */
class BmStoreTestbed : public TestbedBase
{
  public:
    explicit BmStoreTestbed(const TestbedConfig &cfg);

    core::BmsEngine &engine() { return *_engine; }
    core::BmsController &controller() { return *_controller; }
    core::MgmtConsole &console() { return *_console; }
    core::MctpChannel &mctp() { return *_channel; }
    ssd::SsdDevice &ssd(int i) { return *_ssds.at(i); }
    pcie::RootPort &engineSlot() { return *_engineSlot; }
    int ssdCount() const { return static_cast<int>(_ssds.size()); }

    /**
     * Create a namespace of @p bytes bound to function @p fn (via the
     * BMS-Controller namespace manager) and bring up a stock NVMe
     * driver on that function. Bare-metal tenants pass no VM; VM
     * tenants get guest vCPU accounting.
     */
    host::NvmeDriver &attachTenant(
        pcie::FunctionId fn, std::uint64_t bytes,
        core::NamespaceManager::Policy policy =
            core::NamespaceManager::Policy::RoundRobin,
        core::QosLimits qos = core::QosLimits(),
        virt::VirtualMachine *vm = nullptr, int pin_slot = -1,
        bool thin = false);

    /**
     * Bring up a stock NVMe driver on an *existing* namespace of
     * function @p fn (a clone materialised from a snapshot, or a
     * namespace created through the console). With @p ready null the
     * call pumps the simulation until driver init completes (tests);
     * passing a callback defers completion instead, so the fuzzer can
     * attach a clone tenant mid-run from inside an event handler.
     */
    host::NvmeDriver &attachDriver(pcie::FunctionId fn,
                                   std::uint32_t nsid,
                                   std::function<void()> ready = nullptr);

    /** Claim the next unused VF (clone targets, manual VM wiring). */
    pcie::FunctionId claimVf() { return _nextVf++; }

    /** Create a VM and attach it to the next free VF. */
    struct BmsVm
    {
        virt::VirtualMachine *vm = nullptr;
        host::NvmeDriver *driver = nullptr;
        pcie::FunctionId fn = 0;
    };
    BmsVm addVm(std::uint64_t ns_bytes,
                core::QosLimits qos = core::QosLimits(),
                virt::VmConfig vm_cfg = virt::VmConfig());

    /** Provide fresh spare disks for remote hot-plug commands. */
    void enableSpareDisks();

    /** @name Remote tier topology (cfg.remoteNodes > 0). */
    /// @{
    int remoteNodes() const { return static_cast<int>(_servers.size()); }
    remote::StorageServer &server(int node) { return *_servers.at(node); }
    remote::NetworkLink &link(int node) { return *_links.at(node); }
    remote::RemoteNvmeDevice &remoteDevice(int node, int volume)
    {
        return *_remotes.at(static_cast<std::size_t>(
            node * _cfg.volumesPerNode + volume));
    }
    /** Back-end slot occupied by @p volume of @p node. */
    int remoteSlot(int node, int volume) const
    {
        return _cfg.ssdCount + node * _cfg.volumesPerNode + volume;
    }
    /// @}

  private:
    core::BmsEngine *_engine = nullptr;
    core::BmsController *_controller = nullptr;
    core::MgmtConsole *_console = nullptr;
    core::MctpChannel *_channel = nullptr;
    pcie::RootPort *_engineSlot = nullptr;
    std::vector<ssd::SsdDevice *> _ssds;
    std::vector<remote::StorageServer *> _servers;
    std::vector<remote::NetworkLink *> _links;
    std::vector<remote::RemoteNvmeDevice *> _remotes;
    pcie::FunctionId _nextVf;
    int _spareCount = 0;
};

/** Host + SSDs + SPDK vhost target serving virtio-blk VMs. */
class VhostTestbed : public TestbedBase
{
  public:
    VhostTestbed(const TestbedConfig &cfg,
                 baselines::SpdkVhostConfig vhost_cfg);

    baselines::SpdkVhostTarget &target() { return *_target; }
    ssd::SsdDevice &ssd(int i) { return *_ssds.at(i); }
    host::NvmeDriver &backendDriver(int i) { return *_backends.at(i); }
    int ssdCount() const { return static_cast<int>(_ssds.size()); }

    /** A virtio-blk VM carved out of disk @p disk. */
    struct VhostVm
    {
        virt::VirtualMachine *vm = nullptr;
        virt::VirtioBlkDevice *blk = nullptr;
    };
    VhostVm addVm(int disk, std::uint64_t offset, std::uint64_t length,
                  virt::VmConfig vm_cfg = virt::VmConfig());

    /** Start the vhost reactors (after all VMs are added). */
    void start() { _target->start(); }

  private:
    baselines::SpdkVhostTarget *_target = nullptr;
    std::vector<ssd::SsdDevice *> _ssds;
    std::vector<host::NvmeDriver *> _backends;
    std::vector<std::unique_ptr<host::OffsetBlockDevice>> _views;
    int _vmIndex = 0;
};

} // namespace bms::harness

#endif // BMS_HARNESS_TESTBEDS_HH
