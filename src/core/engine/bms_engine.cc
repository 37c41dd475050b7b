#include "core/engine/bms_engine.hh"

#include <algorithm>
#include <string>
#include <utility>

namespace bms::core {

BmsEngine::BmsEngine(sim::Simulator &sim, std::string name,
                     EngineConfig cfg)
    : SimObject(sim, name), _cfg(cfg), _chip(sim.pages())
{
    _qos = std::make_unique<QosModule>(sim, name + ".qos");
    _gate = std::make_unique<MigrationGate>(sim, name + ".miggate");
    _target = std::make_unique<TargetController>(sim, name + ".target",
                                                 *this);
    _functions.reserve(static_cast<std::size_t>(_cfg.totalFunctions()));
    _pausingSlots.assign(static_cast<std::size_t>(_cfg.totalFunctions()), 0);
    for (int i = 0; i < _cfg.totalFunctions(); ++i) {
        nvme::ControllerModel::Config fc;
        fc.fn = static_cast<pcie::FunctionId>(i);
        fc.cmdProcDelay = _cfg.frontPipelineDelay;
        fc.model = "BM-Store virtual NVMe";
        fc.arb = _cfg.frontArb;
        fc.arbBurst = _cfg.frontArbBurst;
        fc.doorbellBatchDelay = _cfg.frontDoorbellBatch;
        fc.maxIoQueues = EngineConfig::kFrontMaxIoQueues;
        bool is_pf = i < EngineConfig::kPfCount;
        _functions.push_back(std::make_unique<FrontFunction>(
            sim, name + (is_pf ? ".pf" : ".vf") + std::to_string(i), fc,
            is_pf, *_target));
    }
    // The production board exposes two x8 back-end interfaces; every
    // pair of SSD slots shares one (paper §IV-E).
    int ifaces = (_cfg.ssdSlots + 1) / 2;
    _ifaceLinks.reserve(static_cast<std::size_t>(ifaces));
    for (int i = 0; i < ifaces; ++i) {
        _ifaceLinks.push_back(
            std::make_unique<pcie::PcieLink>(2 * EngineConfig::kBackendLanes));
    }
    _slots.resize(static_cast<std::size_t>(_cfg.ssdSlots));
    _adaptors.reserve(static_cast<std::size_t>(_cfg.ssdSlots));
    for (int s = 0; s < _cfg.ssdSlots; ++s) {
        _adaptors.push_back(std::make_unique<HostAdaptor>(
            sim, name + ".adaptor" + std::to_string(s),
            static_cast<std::uint8_t>(s), _chip, _cfg, &_dramBusy,
            _ifaceLinks[static_cast<std::size_t>(s / 2)].get()));
    }
}

void
BmsEngine::mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                     std::uint64_t value)
{
    _functions.at(fn)->regWrite(offset, value);
}

std::uint64_t
BmsEngine::mmioRead(pcie::FunctionId fn, std::uint64_t offset)
{
    return _functions.at(fn)->regRead(offset);
}

void
BmsEngine::attached(pcie::PcieUpstreamIf &upstream)
{
    _hostUp = &upstream;
    for (auto &fn : _functions)
        fn->setUpstream(&upstream);
    for (auto &ad : _adaptors)
        ad->setHostUpstream(&upstream);
}

void
BmsEngine::attachBackendSsd(int slot, pcie::PcieDeviceIf &ssd,
                            std::function<void()> ready)
{
    HostAdaptor &ad = *_adaptors.at(slot);
    ad.attachSsd(ssd);
    ad.init(std::move(ready));
}

NsBinding &
BmsEngine::bind(pcie::FunctionId fn, std::uint32_t nsid,
                std::uint64_t size_blocks, LbaMapGeometry geom)
{
    nvme::NamespaceInfo info;
    info.nsid = nsid;
    info.sizeBlocks = size_blocks;
    auto binding = std::make_unique<NsBinding>(fn, nsid, info, geom);
    std::uint32_t key = binding->key();
    BMS_ASSERT(!_bindings.count(key),
               "namespace already bound: fn=", fn, " nsid=", nsid);
    BMS_ASSERT_LE(size_blocks, geom.capacityBlocks(),
                  "namespace larger than its mapping table");
    NsBinding &ref = *binding;
    _bindings.emplace(key, std::move(binding));
    _functions.at(fn)->addNamespace(info);
    return ref;
}

void
BmsEngine::unbind(pcie::FunctionId fn, std::uint32_t nsid)
{
    const std::uint32_t key = QosModule::key(fn, nsid);
    _bindings.erase(key);
    _functions.at(fn)->removeNamespace(nsid);
    _qos->drop(key);
}

NsBinding *
BmsEngine::findBinding(pcie::FunctionId fn, std::uint32_t nsid)
{
    auto it = _bindings.find(QosModule::key(fn, nsid));
    return it == _bindings.end() ? nullptr : it->second.get();
}

void
BmsEngine::forEachBinding(const std::function<void(NsBinding &)> &fn)
{
    // Deterministic iteration order (the unordered_map's order depends
    // on pointer hashing): visit by ascending QoS key.
    std::vector<std::uint32_t> keys;
    keys.reserve(_bindings.size());
    // BMS_LINT_ALLOW(unordered-iter): keys are sorted before visiting
    for (auto &[key, binding] : _bindings) {
        (void)binding;
        keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (std::uint32_t key : keys)
        fn(*_bindings.at(key));
}

void
BmsEngine::setSlotRemote(int slot, int node)
{
    SlotInfo &info = _slots.at(static_cast<std::size_t>(slot));
    info.remote = true;
    info.node = node;
}

bool
BmsEngine::isRemoteSlot(int slot) const
{
    return _slots.at(static_cast<std::size_t>(slot)).remote;
}

int
BmsEngine::slotNode(int slot) const
{
    return _slots.at(static_cast<std::size_t>(slot)).node;
}

bool
BmsEngine::claimSlot(int slot, SlotOwner owner)
{
    SlotOwner &held = _slots.at(static_cast<std::size_t>(slot)).owner;
    if (held != SlotOwner::None)
        return false;
    held = owner;
    return true;
}

void
BmsEngine::releaseSlot(int slot)
{
    SlotOwner &held = _slots.at(static_cast<std::size_t>(slot)).owner;
    BMS_ASSERT(held != SlotOwner::None, "release of unclaimed slot ", slot);
    held = SlotOwner::None;
}

SlotOwner
BmsEngine::slotOwner(int slot) const
{
    return _slots.at(static_cast<std::size_t>(slot)).owner;
}

void
BmsEngine::setQos(pcie::FunctionId fn, std::uint32_t nsid,
                  QosLimits limits)
{
    _qos->setLimits(QosModule::key(fn, nsid), limits);
}

void
BmsEngine::storeIoContext(int ssd_slot, std::function<void()> stored)
{
    // Pause every function owning a namespace with a chunk on this
    // SSD; tenant doorbells still latch, commands simply stop being
    // fetched (that is the stored "context": ring state lives in host
    // memory and engine registers). The slot remembers whom it holds
    // paused: a function striped over several stored slots resumes
    // only when the last of them reloads.
    std::vector<bool> &holds = _slots.at(ssd_slot).holds;
    holds.resize(_functions.size());
    // BMS_LINT_ALLOW(unordered-iter): marking and counting commute and
    // pauseFetch() only sets a flag, so every visit order ends alike
    for (auto &[key, binding] : _bindings) {
        (void)key;
        bool uses = false;
        const LbaMapGeometry &g = binding->map.geometry();
        for (std::uint32_t r = 0; r < g.rows && !uses; ++r) {
            for (std::uint32_t c = 0; c < g.entriesPerRow && !uses; ++c) {
                if (binding->map.entryValid(r, c) &&
                    binding->map.entrySlot(r, c) == ssd_slot) {
                    uses = true;
                }
            }
        }
        if (uses && !holds[binding->fn]) {
            holds[binding->fn] = true;
            ++_pausingSlots[binding->fn];
            _functions.at(binding->fn)->pauseFetch();
        }
    }
    _adaptors.at(ssd_slot)->whenDrained(std::move(stored));
}

void
BmsEngine::reloadIoContext(int ssd_slot)
{
    std::vector<bool> &holds = _slots.at(ssd_slot).holds;
    for (std::size_t fn = 0; fn < holds.size(); ++fn) {
        if (!holds[fn])
            continue;
        holds[fn] = false;
        if (--_pausingSlots[fn] == 0)
            _functions[fn]->resumeFetch();
    }
}

} // namespace bms::core
