#include "core/ctrl/bms_controller.hh"

#include <utility>

namespace bms::core {

namespace {

/** ARM-side protocol analysis and service processing per command. */
constexpr sim::Tick kArmProcessing = sim::microseconds(50);

} // namespace

BmsController::BmsController(sim::Simulator &sim, std::string name,
                             BmsEngine &engine, Config cfg)
    : SimObject(sim, name), _engine(engine),
      _nsMgr(engine, cfg.mapGeometry)
{
    _endpoint = std::make_unique<MctpEndpoint>(sim, name + ".mctp",
                                               cfg.eid);
    _endpoint->setHandler(
        [this](Eid src, MctpMsgType type, std::vector<std::uint8_t> raw) {
            handleMessage(src, type, std::move(raw));
        });
    _monitor = std::make_unique<IoMonitor>(sim, name + ".iomon", engine,
                                           cfg.monitorPeriod);
    _hotUpgrade = std::make_unique<HotUpgradeManager>(
        sim, name + ".hotupgrade", engine);
    _hotPlug =
        std::make_unique<HotPlugManager>(sim, name + ".hotplug", engine);
    _migration = std::make_unique<MigrationManager>(
        sim, name + ".migration", engine, _nsMgr, *_monitor);
    _migration->setSlotBusyProbe(
        [this](int slot) { return _hotUpgrade->upgradeInProgress(slot); });
    _hotPlug->setLossless(*_migration);
    // Maintenance flows mutually exclude per slot: a firmware upgrade
    // must not aim admin commands at a slot whose disk a replacement
    // has detached, and a replacement must not pull the disk out from
    // under an upgrade's stored I/O context. Either loser is rejected
    // cleanly (ok=false), never interleaved.
    _hotUpgrade->setSlotBlocked(
        [this](int slot) { return _hotPlug->replaceInProgress(slot); });
    _hotPlug->setSlotBlocked(
        [this](int slot) { return _hotUpgrade->upgradeInProgress(slot); });
    _tiering = std::make_unique<TieringManager>(
        sim, name + ".tiering", engine, _nsMgr, *_migration, *_monitor,
        cfg.tiering);
    _migration->setTieredSourceGuard(
        [this](pcie::FunctionId fn, std::uint32_t nsid,
               std::uint32_t chunk) {
            return _tiering->isSpilled(fn, nsid, chunk);
        });
    // Thin-provisioning back-ends for the engine data path: chunk
    // reservation/release against the namespace manager's pools, and
    // chunk CoW through the migration copy machinery (QoS-paced
    // segments, atomic map flip at cutover).
    _engine.targetController().setThinHooks(
        [this](pcie::FunctionId fn, std::uint32_t nsid,
               std::uint32_t chunk_index)
            -> std::optional<TargetController::ThinPlacement> {
            auto a = _nsMgr.allocateChunkAt(fn, nsid, chunk_index);
            if (!a)
                return std::nullopt;
            return TargetController::ThinPlacement{a->slot, a->chunk};
        },
        [this](pcie::FunctionId fn, std::uint32_t nsid,
               std::uint32_t chunk_index) {
            return _nsMgr.freeChunkAt(fn, nsid, chunk_index);
        },
        [this](pcie::FunctionId fn, std::uint32_t nsid,
               std::uint32_t chunk_index, std::function<void(bool)> done) {
            MigrationManager::Options opts;
            opts.cowSource = true;
            bool accepted = _migration->migrate(
                fn, nsid, chunk_index, MigrationManager::kAutoSlot, opts,
                [done](MigrationManager::Report rep) { done(rep.ok); });
            if (!accepted)
                done(false);
        },
        [this](pcie::FunctionId fn, std::uint32_t nsid, bool acquire) {
            if (acquire) {
                bool locked = _nsMgr.lockNs(fn, nsid);
                BMS_ASSERT(locked, "chunk op on unknown namespace fn=",
                           fn, " nsid=", nsid);
            } else {
                _nsMgr.unlockNs(fn, nsid);
            }
        });
}

void
BmsController::attachBackendSsd(int slot, pcie::PcieDeviceIf &ssd,
                                std::function<void()> ready)
{
    _engine.attachBackendSsd(slot, ssd, [this, slot,
                                         ready = std::move(ready)] {
        _nsMgr.registerSsd(slot, _engine.adaptor(slot).capacityBytes(),
                           _engine.isRemoteSlot(slot));
        ready();
    });
}

void
BmsController::handleMessage(Eid src, MctpMsgType type,
                             std::vector<std::uint8_t> raw)
{
    if (type != MctpMsgType::NvmeMi)
        return;
    MiMessage req;
    if (!MiMessage::parse(raw, req) ||
        req.kind != MiMessage::Kind::Request) {
        logWarn("malformed NVMe-MI message");
        return;
    }
    // ARM-side protocol analyzer + service processing.
    schedule(kArmProcessing, [this, src, req] { dispatch(src, req); });
}

void
BmsController::respond(Eid dest, const MiMessage &req, MiStatus status,
                       std::vector<std::uint8_t> payload)
{
    MiMessage resp;
    resp.kind = MiMessage::Kind::Response;
    resp.opcode = req.opcode;
    resp.status = status;
    resp.tag = req.tag;
    resp.payload = std::move(payload);
    _endpoint->sendMessage(dest, MctpMsgType::NvmeMi, resp.serialize());
}

template <class Outcome>
void
BmsController::respondOutcome(Eid dest, const MiMessage &req,
                              const Outcome &outcome)
{
    respond(dest, req,
            outcome.ok ? MiStatus::Success : MiStatus::InternalError,
            wire::encode(outcome));
}

bool
BmsController::validFn(std::uint8_t fn) const
{
    return fn < _engine.config().totalFunctions();
}

std::vector<MiDfEntry>
BmsController::df() const
{
    std::uint64_t chunk_bytes = _nsMgr.chunkBlocks() * nvme::kBlockSize;
    std::vector<MiDfEntry> out;
    for (const NamespaceManager::Occupancy &o : _nsMgr.occupancy()) {
        out.push_back(MiDfEntry{static_cast<std::uint8_t>(o.slot), o.total,
                                o.used, o.free, o.logical, o.quiesced,
                                chunk_bytes});
    }
    return out;
}

void
BmsController::dispatch(Eid src, const MiMessage &req)
{
    switch (req.opcode) {
      case MiOpcode::HealthStatusPoll: {
        MiHealth out;
        for (int s = 0; s < _engine.ssdSlots(); ++s) {
            SlotHealth h;
            if (slotHealthProbe) {
                h = slotHealthProbe(s);
            } else {
                h.slot = static_cast<std::uint8_t>(s);
                h.present = _engine.adaptor(s).hasSsd();
                h.capacityBytes = _engine.adaptor(s).capacityBytes();
                h.inflight = _engine.adaptor(s).inflight();
            }
            out.slots.push_back(std::move(h));
        }
        respond(src, req, MiStatus::Success, wire::encode(out));
        return;
      }
      case MiOpcode::VendorCreateNamespace: {
        MiCreateNamespaceReq q;
        if (!wire::decode(req.payload, q) || !validFn(q.fn)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        auto policy = static_cast<NamespaceManager::Policy>(q.policy);
        auto nsid =
            q.thin ? _nsMgr.createThin(q.fn, q.bytes, policy, q.qos)
                   : _nsMgr.createAndAttach(q.fn, q.bytes, policy, q.qos);
        if (!nsid) {
            respond(src, req, MiStatus::InternalError);
            return;
        }
        respond(src, req, MiStatus::Success, wire::encode(MiNsid{*nsid}));
        return;
      }
      case MiOpcode::VendorDestroyNamespace: {
        MiNsRef q;
        bool ok = wire::decode(req.payload, q) && _nsMgr.destroy(q.fn, q.nsid);
        if (ok)
            _tiering->forgetNamespace(q.fn, q.nsid);
        respond(src, req,
                ok ? MiStatus::Success : MiStatus::InvalidParameter);
        return;
      }
      case MiOpcode::VendorSetQos: {
        MiSetQosReq q;
        if (!wire::decode(req.payload, q) ||
            !_engine.findBinding(q.fn, q.nsid)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        _engine.setQos(q.fn, q.nsid, q.qos);
        respond(src, req, MiStatus::Success);
        return;
      }
      case MiOpcode::VendorIoStats: {
        MiFn q;
        if (!wire::decode(req.payload, q) || !validFn(q.fn)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        const IoMonitor::FnSample &s = _monitor->current(q.fn);
        // Multi-queue arbitration state (paper §IV-E fan-out), then
        // the per-slot occupancy tail.
        MiIoStats out{s.readOps, s.writeOps, s.readIops, s.writeIops,
                      s.readMbps, s.writeMbps, s.activeSqs,
                      s.maxSqBacklog, s.arbRounds, s.fetchBatches,
                      s.fetchedSqes, s.doorbellsCoalesced, df()};
        respond(src, req, MiStatus::Success, wire::encode(out));
        return;
      }
      case MiOpcode::VendorFirmwareUpgrade: {
        MiUpgradeReq q;
        if (!wire::decode(req.payload, q) || q.slot >= _engine.ssdSlots() ||
            !HotUpgradeManager::validImageBytes(q.imageBytes)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        _hotUpgrade->upgrade(
            q.slot, q.imageBytes,
            [this, src, req](HotUpgradeManager::Report rep) {
                respondOutcome(src, req,
                               MiUpgradeResult{rep.ok,
                                               sim::toMs(rep.storeContext),
                                               sim::toMs(rep.firmware),
                                               sim::toMs(rep.reloadContext),
                                               sim::toMs(rep.total),
                                               sim::toMs(rep.ioPause)});
            });
        return;
      }
      case MiOpcode::VendorHotPlug: {
        MiHotPlugReq q;
        if (!wire::decode(req.payload, q) || q.slot >= _engine.ssdSlots() ||
            !_spareProvider) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        pcie::PcieDeviceIf *spare = _spareProvider(q.slot);
        if (!spare) {
            respond(src, req, MiStatus::InternalError);
            return;
        }
        auto reply = [this, src, req](HotPlugManager::Report rep) {
            respondOutcome(src, req,
                           MiHotPlugResult{rep.ok, sim::toMs(rep.ioPause),
                                           rep.evacuatedChunks,
                                           sim::toMs(rep.evacTime)});
        };
        // Destructive path: chunk accounting is kept and existing
        // mappings point at the fresh disk's chunks (restoration is a
        // higher layer's job). Lossless path: the slot is drained by
        // the migration subsystem first, so no data is abandoned.
        if (q.lossless)
            _hotPlug->replaceLossless(q.slot, *spare, std::move(reply));
        else
            _hotPlug->replace(q.slot, *spare, std::move(reply));
        return;
      }
      case MiOpcode::VendorMigrateChunk: {
        MiMigrateReq q;
        if (!wire::decode(req.payload, q)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        int dst_slot = q.dstSlot == MiMigrateReq::kAutoSlot
                           ? MigrationManager::kAutoSlot
                           : q.dstSlot;
        bool accepted = _migration->migrate(
            q.fn, q.nsid, q.chunkIndex, dst_slot,
            [this, src, req](MigrationManager::Report rep) {
                respondOutcome(src, req,
                               MiMigrateResult{rep.ok, rep.dstSlot,
                                               sim::toMs(rep.elapsed),
                                               rep.bytesCopied});
            });
        if (!accepted)
            respond(src, req, MiStatus::InvalidParameter);
        return;
      }
      case MiOpcode::VendorEvacuate: {
        MiSlot q;
        if (!wire::decode(req.payload, q) || q.slot >= _engine.ssdSlots()) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        _migration->evacuate(
            q.slot, [this, src, req](MigrationManager::EvacReport rep) {
                respondOutcome(src, req,
                               MiEvacuateResult{rep.ok, rep.moved,
                                                rep.failed,
                                                sim::toMs(rep.elapsed)});
            });
        return;
      }
      case MiOpcode::VendorMigrationStatus:
        respond(src, req, MiStatus::Success,
                wire::encode(MiMigrations{_migration->status()}));
        return;
      case MiOpcode::VendorDf:
        respond(src, req, MiStatus::Success, wire::encode(MiDf{df()}));
        return;
      case MiOpcode::VendorTierStats: {
        const TieringManager &t = *_tiering;
        MiTierStats out{t.spills(), t.promotes(), t.failures(),
                        t.nodeLosses(), t.chunksRecovered(),
                        t.chunksRespilled(), {}};
        for (const TieringManager::SpilledChunk &c : t.spilled()) {
            out.spilled.push_back(MiSpilledChunk{
                c.fn, c.nsid, c.chunkIndex, c.remoteSlot, c.remoteChunk,
                c.shadowSlot, c.shadowChunk,
                _monitor->chunkHeatMbps(c.fn, c.nsid, c.chunkIndex)});
        }
        respond(src, req, MiStatus::Success, wire::encode(out));
        return;
      }
      case MiOpcode::VendorSetTierPolicy: {
        MiTierPolicyReq q;
        if (!wire::decode(req.payload, q) || q.spillMbps < 0 ||
            q.promoteMbps < q.spillMbps) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        TieringConfig policy = _tiering->policy();
        policy.spillMbpsThreshold = q.spillMbps;
        policy.promoteMbpsThreshold = q.promoteMbps;
        policy.policyPeriod = static_cast<sim::Tick>(q.periodNs);
        _tiering->setPolicy(policy);
        respond(src, req, MiStatus::Success);
        return;
      }
      case MiOpcode::VendorFailNode: {
        MiNode q;
        bool known = false;
        if (wire::decode(req.payload, q)) {
            for (int s = 0; s < _engine.ssdSlots(); ++s) {
                known = known || (_engine.isRemoteSlot(s) &&
                                  _engine.slotNode(s) == q.node);
            }
        }
        if (!known) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        if (_nodeDownHook)
            _nodeDownHook(q.node, true);
        _tiering->onNodeLoss(
            q.node, [this, src, req](TieringManager::RecoveryReport rep) {
                respondOutcome(src, req,
                               MiFailNodeResult{rep.ok, rep.recovered,
                                                rep.respilled});
            });
        return;
      }
      case MiOpcode::VendorSnapshot: {
        MiNsRef q;
        if (!wire::decode(req.payload, q)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        auto id = _nsMgr.snapshot(q.fn, q.nsid);
        if (!id) {
            respond(src, req, MiStatus::InternalError);
            return;
        }
        // Listing tail: every live snapshot, so one verb doubles as
        // `snapshots` for the console.
        respond(src, req, MiStatus::Success,
                wire::encode(MiSnapshotList{*id, _nsMgr.snapshots()}));
        return;
      }
      case MiOpcode::VendorClone: {
        MiCloneReq q;
        if (!wire::decode(req.payload, q) || !validFn(q.fn)) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        auto nsid = _nsMgr.clone(q.snapId, q.fn, q.qos);
        if (!nsid) {
            respond(src, req, MiStatus::InvalidParameter);
            return;
        }
        respond(src, req, MiStatus::Success, wire::encode(MiNsid{*nsid}));
        return;
      }
      case MiOpcode::VendorDeleteSnapshot: {
        MiSnapId q;
        bool ok = wire::decode(req.payload, q) && _nsMgr.deleteSnapshot(q.id);
        respond(src, req,
                ok ? MiStatus::Success : MiStatus::InvalidParameter);
        return;
      }
      case MiOpcode::VendorListNamespaces:
      default:
        respond(src, req, MiStatus::InvalidParameter);
        return;
    }
}

} // namespace bms::core
