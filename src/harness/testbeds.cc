#include "harness/testbeds.hh"

#include <utility>

#include "sim/check.hh"

namespace bms::harness {

TestbedBase::TestbedBase(const TestbedConfig &cfg) : _cfg(cfg)
{
    if (cfg.sharedSim) {
        _sim = cfg.sharedSim;
    } else {
        _ownedSim = std::make_unique<sim::Simulator>(cfg.seed);
        _sim = _ownedSim.get();
    }
    _host = _sim->make<host::HostSystem>(*_sim, nm("host"), cfg.host);
}

void
TestbedBase::runUntilTrue(const std::function<bool()> &pred,
                          sim::Tick timeout, sim::Tick step)
{
    sim::Tick deadline = _sim->now() + timeout;
    while (!pred()) {
        BMS_ASSERT_LT(_sim->now(), deadline,
                      "testbed bring-up timed out");
        _sim->runUntil(_sim->now() + step);
    }
}

// ---------------------------------------------------------------------------
// NativeTestbed

NativeTestbed::NativeTestbed(const TestbedConfig &cfg) : TestbedBase(cfg)
{
    int ready = 0;
    for (int i = 0; i < cfg.ssdCount; ++i) {
        auto *ssd = _sim->make<ssd::SsdDevice>(
            *_sim, nm("ssd" + std::to_string(i)), cfg.ssdConfig(i));
        pcie::RootPort &port = _host->addSlot(4);
        port.attach(*ssd);
        _ssds.push_back(ssd);
        _ports.push_back(&port);
        if (!cfg.attachHostDrivers)
            continue;
        host::NvmeDriver::Config dc;
        dc.ioQueues = cfg.ioQueues;
        dc.queueDepth = cfg.queueDepth;
        dc.profile = cfg.host.profile;
        auto *drv = _sim->make<host::NvmeDriver>(
            *_sim, nm("nvme" + std::to_string(i)), _host->memory(),
            _host->irq(), port, _host->cpus(), 0, dc);
        drv->init([&ready] { ++ready; });
        _drivers.push_back(drv);
    }
    if (cfg.attachHostDrivers)
        runUntilTrue([&ready, n = cfg.ssdCount] { return ready == n; });
}

NativeTestbed::VfioVm
NativeTestbed::addVfioVm(int disk, virt::VmConfig vm_cfg)
{
    VfioVm out;
    out.vm = _sim->make<virt::VirtualMachine>(
        *_sim, nm("vm" + std::to_string(_vmIndex++)), vm_cfg);
    host::NvmeDriver::Config dc;
    dc.ioQueues = _cfg.ioQueues;
    dc.queueDepth = _cfg.queueDepth;
    dc.profile = vm_cfg.profile;
    out.driver = _sim->make<host::NvmeDriver>(
        *_sim, out.vm->name() + ".nvme", _host->memory(), _host->irq(),
        *_ports.at(disk), out.vm->vcpus(), 0, dc);
    bool ready = false;
    out.driver->init([&ready] { ready = true; });
    runUntilTrue([&ready] { return ready; });
    return out;
}

// ---------------------------------------------------------------------------
// BmStoreTestbed

BmStoreTestbed::BmStoreTestbed(const TestbedConfig &cfg) : TestbedBase(cfg)
{
    int remote_slots = cfg.remoteNodes * cfg.volumesPerNode;
    core::EngineConfig ecfg = cfg.engine;
    ecfg.ssdSlots = cfg.ssdCount + remote_slots;
    _engine = _sim->make<core::BmsEngine>(*_sim, nm("bms"), ecfg);
    _engineSlot = &_host->addSlot(16);
    _engineSlot->attach(*_engine);
    core::BmsControllerConfig ccfg = cfg.ctrl;
    if (cfg.chunkBytes > 0)
        ccfg.mapGeometry.chunkBlocks = cfg.chunkBytes / nvme::kBlockSize;
    // A remote tier needs the wide map format: slot ids beyond 4 and
    // chunk ids beyond 64 only fit in the 16-bit entries.
    if (remote_slots > 0)
        ccfg.mapGeometry.wide = true;
    _controller =
        _sim->make<core::BmsController>(*_sim, nm("bmsc"), *_engine, ccfg);
    _channel = _sim->make<core::MctpChannel>(*_sim, nm("mctp-vdm"));
    _channel->bind(_controller->endpoint());
    _console = _sim->make<core::MgmtConsole>(*_sim, nm("console"));
    _channel->bind(_console->endpoint());
    _controller->monitor().start();

    // Health probe with full SMART telemetry: the harness can see the
    // concrete device types behind each adaptor.
    _controller->slotHealthProbe = [this](int slot) {
        core::SlotHealth h;
        h.slot = static_cast<std::uint8_t>(slot);
        core::HostAdaptor &ad = _engine->adaptor(slot);
        h.present = ad.hasSsd();
        h.capacityBytes = ad.capacityBytes();
        h.inflight = ad.inflight();
        if (auto *dev = dynamic_cast<ssd::SsdDevice *>(ad.ssd())) {
            h.firmwareRev = dev->firmwareRev();
            h.upgrading = dev->upgrading();
            h.temperatureK = dev->smartTemperatureK();
            h.percentageUsed = dev->smartPercentageUsed();
            h.powerOnHours = dev->smartPowerOnHours();
            h.mediaErrors = dev->mediaErrors();
        }
        return h;
    };

    int ready = 0;
    for (int i = 0; i < cfg.ssdCount; ++i) {
        auto *ssd = _sim->make<ssd::SsdDevice>(
            *_sim, nm("bssd" + std::to_string(i)), cfg.ssdConfig(i));
        _ssds.push_back(ssd);
        _controller->attachBackendSsd(i, *ssd, [&ready] { ++ready; });
    }

    // Remote tier: one storage node + link per node, one initiator
    // device per exported volume, each filling a back-end slot past
    // the local SSDs.
    for (int n = 0; n < cfg.remoteNodes; ++n) {
        remote::StorageServer::Config scfg = cfg.remoteServer;
        auto *server = _sim->make<remote::StorageServer>(
            *_sim, nm("node" + std::to_string(n)), scfg);
        auto *net = _sim->make<remote::NetworkLink>(
            *_sim, nm("net" + std::to_string(n)), cfg.network);
        _servers.push_back(server);
        _links.push_back(net);
        for (int v = 0; v < cfg.volumesPerNode; ++v) {
            int vol = server->addVolume(
                {v % scfg.ssdCount,
                 static_cast<std::uint64_t>(v / scfg.ssdCount) *
                     cfg.remoteVolumeBytes,
                 cfg.remoteVolumeBytes});
            auto *rdev = _sim->make<remote::RemoteNvmeDevice>(
                *_sim,
                nm("rvol" + std::to_string(n) + "." + std::to_string(v)),
                *net, *server, vol);
            _remotes.push_back(rdev);
            int slot = remoteSlot(n, v);
            // Mark the slot remote BEFORE attach: registerSsd reads
            // the catalog when the adaptor reports ready.
            _engine->setSlotRemote(slot, n);
            _controller->attachBackendSsd(slot, *rdev,
                                          [&ready] { ++ready; });
        }
    }
    // Node loss via the failNode verb flips the server model.
    _controller->setNodeDownHook(
        [this](int node, bool down) { server(node).setDown(down); });

    runUntilTrue([&ready, n = cfg.ssdCount + remote_slots] {
        return ready == n;
    });
    _nextVf = static_cast<pcie::FunctionId>(ecfg.pfCount);
}

host::NvmeDriver &
BmStoreTestbed::attachTenant(pcie::FunctionId fn, std::uint64_t bytes,
                             core::NamespaceManager::Policy policy,
                             core::QosLimits qos,
                             virt::VirtualMachine *vm, int pin_slot,
                             bool thin)
{
    auto nsid = thin
                    ? _controller->namespaces().createThin(
                          fn, bytes, policy, qos, pin_slot)
                    : _controller->namespaces().createAndAttach(
                          fn, bytes, policy, qos, pin_slot);
    BMS_ASSERT(nsid, "namespace allocation failed");
    host::NvmeDriver::Config dc;
    dc.ioQueues = _cfg.ioQueues;
    dc.queueDepth = _cfg.queueDepth;
    dc.nsid = *nsid;
    dc.sqPriorities = _cfg.sqPriorities;
    dc.profile = vm ? vm->profile() : _cfg.host.profile;
    host::CpuSet &cpus = vm ? vm->vcpus() : _host->cpus();
    auto *drv = _sim->make<host::NvmeDriver>(
        *_sim, nm("tenant.fn" + std::to_string(fn)), _host->memory(),
        _host->irq(), *_engineSlot, cpus, fn, dc);
    bool ready = false;
    drv->init([&ready] { ready = true; });
    runUntilTrue([&ready] { return ready; });
    return *drv;
}

host::NvmeDriver &
BmStoreTestbed::attachDriver(pcie::FunctionId fn, std::uint32_t nsid,
                             std::function<void()> ready)
{
    host::NvmeDriver::Config dc;
    dc.ioQueues = _cfg.ioQueues;
    dc.queueDepth = _cfg.queueDepth;
    dc.nsid = nsid;
    dc.sqPriorities = _cfg.sqPriorities;
    dc.profile = _cfg.host.profile;
    auto *drv = _sim->make<host::NvmeDriver>(
        *_sim,
        nm("tenant.fn" + std::to_string(fn) + ".ns" + std::to_string(nsid)),
        _host->memory(), _host->irq(), *_engineSlot, _host->cpus(), fn,
        dc);
    if (ready) {
        // Mid-run attach: the caller is inside an event handler and
        // cannot pump the simulation — init completes asynchronously.
        drv->init(std::move(ready));
        return *drv;
    }
    bool up = false;
    drv->init([&up] { up = true; });
    runUntilTrue([&up] { return up; });
    return *drv;
}

BmStoreTestbed::BmsVm
BmStoreTestbed::addVm(std::uint64_t ns_bytes, core::QosLimits qos,
                      virt::VmConfig vm_cfg)
{
    BmsVm out;
    out.fn = _nextVf++;
    BMS_ASSERT_LT(out.fn, _engine->config().totalFunctions(),
                  "out of VFs (the card exposes 4 PFs + 124 VFs)");
    out.vm = _sim->make<virt::VirtualMachine>(
        *_sim, nm("vm.fn" + std::to_string(out.fn)), vm_cfg);
    out.driver = &attachTenant(out.fn, ns_bytes,
                               core::NamespaceManager::Policy::RoundRobin,
                               qos, out.vm);
    return out;
}

void
BmStoreTestbed::enableSpareDisks()
{
    _controller->setSpareSsdProvider([this](int slot) {
        auto *spare = _sim->make<ssd::SsdDevice>(
            *_sim,
            nm("spare" + std::to_string(_spareCount++) + ".slot" +
               std::to_string(slot)),
            _cfg.ssd);
        return static_cast<pcie::PcieDeviceIf *>(spare);
    });
}

// ---------------------------------------------------------------------------
// VhostTestbed

VhostTestbed::VhostTestbed(const TestbedConfig &cfg,
                           baselines::SpdkVhostConfig vhost_cfg)
    : TestbedBase(cfg)
{
    _target = _sim->make<baselines::SpdkVhostTarget>(*_sim, nm("vhost"),
                                                     vhost_cfg);
    int ready = 0;
    for (int i = 0; i < cfg.ssdCount; ++i) {
        auto *ssd = _sim->make<ssd::SsdDevice>(
            *_sim, nm("ssd" + std::to_string(i)), cfg.ssdConfig(i));
        pcie::RootPort &port = _host->addSlot(4);
        port.attach(*ssd);
        host::NvmeDriver::Config dc;
        dc.ioQueues = cfg.ioQueues;
        dc.queueDepth = cfg.queueDepth;
        dc.profile = baselines::spdkBackendProfile();
        auto *drv = _sim->make<host::NvmeDriver>(
            *_sim, nm("spdk-nvme" + std::to_string(i)), _host->memory(),
            _host->irq(), port, _host->cpus(), 0, dc);
        drv->init([&ready] { ++ready; });
        _ssds.push_back(ssd);
        _backends.push_back(drv);
    }
    runUntilTrue([&ready, n = cfg.ssdCount] { return ready == n; });
}

VhostTestbed::VhostVm
VhostTestbed::addVm(int disk, std::uint64_t offset, std::uint64_t length,
                    virt::VmConfig vm_cfg)
{
    VhostVm out;
    out.vm = _sim->make<virt::VirtualMachine>(
        *_sim, nm("vm" + std::to_string(_vmIndex++)), vm_cfg);
    auto view = std::make_unique<host::OffsetBlockDevice>(
        *_backends.at(disk), offset, length);
    out.blk = _sim->make<virt::VirtioBlkDevice>(
        *_sim, out.vm->name() + ".vblk", out.vm->vcpus(),
        vm_cfg.profile, length, /*num_queues=*/vm_cfg.vcpus);
    _target->addDevice(*out.blk, *view);
    _views.push_back(std::move(view));
    return out;
}

} // namespace bms::harness
