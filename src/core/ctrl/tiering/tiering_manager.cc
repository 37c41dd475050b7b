#include "core/ctrl/tiering/tiering_manager.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/check.hh"

namespace bms::core {

TieringManager::TieringManager(sim::Simulator &sim, std::string name,
                               BmsEngine &engine, NamespaceManager &ns,
                               MigrationManager &migration,
                               IoMonitor &monitor, TieringConfig cfg)
    : SimObject(sim, std::move(name)), _engine(engine), _ns(ns),
      _mig(migration), _cfg(cfg), _monitor(monitor)
{
    registerStat("spills", [this] { return double(_spills); });
    registerStat("promotes", [this] { return double(_promotes); });
    registerStat("failures", [this] { return double(_failures); });
    registerStat("nodeLosses", [this] { return double(_nodeLosses); });
    registerStat("chunksRecovered", [this] { return double(_recovered); });
    registerStat("chunksRespilled", [this] { return double(_respilled); });
    if (_cfg.policyPeriod > 0) {
        std::uint64_t gen = ++_policyGen;
        schedule(_cfg.policyPeriod, [this, gen] {
            if (gen == _policyGen)
                policyTick();
        });
    }
}

void
TieringManager::setPolicy(TieringConfig cfg)
{
    _cfg = cfg;
    std::uint64_t gen = ++_policyGen;
    if (_cfg.policyPeriod > 0) {
        schedule(_cfg.policyPeriod, [this, gen] {
            if (gen == _policyGen)
                policyTick();
        });
    }
}

TieringManager::SpilledChunk *
TieringManager::find(pcie::FunctionId fn, std::uint32_t nsid,
                     std::uint32_t chunk_index)
{
    for (SpilledChunk &e : _spilled) {
        if (e.fn == fn && e.nsid == nsid && e.chunkIndex == chunk_index)
            return &e;
    }
    return nullptr;
}

bool
TieringManager::isSpilled(pcie::FunctionId fn, std::uint32_t nsid,
                          std::uint32_t chunk_index) const
{
    for (const SpilledChunk &e : _spilled) {
        if (e.fn == fn && e.nsid == nsid && e.chunkIndex == chunk_index)
            return true;
    }
    return false;
}

int
TieringManager::pickRemoteSlot() const
{
    for (int s = 0; s < _engine.ssdSlots(); ++s) {
        if (!_engine.isRemoteSlot(s) || _ns.quiesced(s))
            continue;
        if (_downNodes.count(_engine.slotNode(s)))
            continue;
        if (!_engine.adaptor(s).ready() || _ns.freeChunks(s) == 0)
            continue;
        return s;
    }
    return -1;
}

void
TieringManager::spill(pcie::FunctionId fn, std::uint32_t nsid,
                      std::uint32_t chunk_index, int remote_slot,
                      std::function<void(bool)> done)
{
    auto reject = [this, &done] {
        ++_failures;
        schedule(0, [done = std::move(done)] { done(false); });
    };
    if (_recovering || find(fn, nsid, chunk_index)) {
        reject();
        return;
    }
    auto alloc = _ns.chunkAt(fn, nsid, chunk_index);
    if (!alloc || _engine.isRemoteSlot(alloc->slot)) {
        reject();
        return;
    }
    int rs = remote_slot < 0 ? pickRemoteSlot() : remote_slot;
    if (rs < 0 || rs >= _engine.ssdSlots() || !_engine.isRemoteSlot(rs) ||
        _downNodes.count(_engine.slotNode(rs)) ||
        !_engine.adaptor(rs).ready() || _ns.freeChunks(rs) == 0) {
        reject();
        return;
    }

    std::uint8_t shadow_slot = alloc->slot;
    std::uint8_t shadow_chunk = alloc->chunk;
    auto done_p =
        std::make_shared<std::function<void(bool)>>(std::move(done));
    MigrationManager::Options opts;
    opts.keepSource = true;
    opts.segmentBytes = _cfg.tieringSegmentBytes;
    opts.maxSegmentRetries = 2;
    opts.beforeCutover = [this, shadow_slot,
                          shadow_chunk](std::uint8_t dst_slot,
                                        std::uint8_t dst_chunk) {
        _engine.migrationGate().setTierMirror(dst_slot, dst_chunk,
                                              shadow_slot, shadow_chunk);
    };
    ++_busy;
    bool accepted = _mig.migrate(
        fn, nsid, chunk_index, rs, std::move(opts),
        [this, fn, nsid, chunk_index, shadow_slot, shadow_chunk,
         done_p](MigrationManager::Report r) {
            --_busy;
            if (!r.ok) {
                ++_failures;
                (*done_p)(false);
                return;
            }
            _spilled.push_back(SpilledChunk{fn, nsid, chunk_index,
                                            r.dstSlot, r.dstChunk,
                                            shadow_slot, shadow_chunk});
            ++_spills;
            logInfo("spilled fn=", fn, " nsid=", nsid, " chunk=",
                    chunk_index, " -> remote slot ", int(r.dstSlot),
                    ":", int(r.dstChunk), " (shadow ", int(shadow_slot),
                    ":", int(shadow_chunk), ")");
            (*done_p)(true);
        });
    if (!accepted) {
        --_busy;
        ++_failures;
        schedule(0, [done_p] { (*done_p)(false); });
    }
}

void
TieringManager::promote(pcie::FunctionId fn, std::uint32_t nsid,
                        std::uint32_t chunk_index,
                        std::function<void(bool)> done)
{
    SpilledChunk *entry = find(fn, nsid, chunk_index);
    if (!entry || _recovering ||
        _downNodes.count(_engine.slotNode(entry->remoteSlot))) {
        ++_failures;
        schedule(0, [done = std::move(done)] { done(false); });
        return;
    }
    const SpilledChunk e = *entry; // registry may reallocate
    auto done_p =
        std::make_shared<std::function<void(bool)>>(std::move(done));
    MigrationManager::Options opts;
    opts.pinnedDstChunk = e.shadowChunk;
    opts.segmentBytes = _cfg.tieringSegmentBytes;
    opts.maxSegmentRetries = 2;
    opts.allowTieredSource = true;
    opts.beforeCutover = [this, e](std::uint8_t, std::uint8_t) {
        _engine.migrationGate().clearTierMirror(e.remoteSlot,
                                                e.remoteChunk);
    };
    ++_busy;
    bool accepted = _mig.migrate(
        fn, nsid, chunk_index, e.shadowSlot, std::move(opts),
        [this, e, done_p](MigrationManager::Report r) {
            --_busy;
            if (!r.ok) {
                // The mirror is still armed (the cutover hook never
                // ran) and the registry entry stands: the chunk is
                // simply still spilled.
                ++_failures;
                (*done_p)(false);
                return;
            }
            _spilled.erase(
                std::remove_if(_spilled.begin(), _spilled.end(),
                               [&e](const SpilledChunk &s) {
                                   return s.fn == e.fn &&
                                          s.nsid == e.nsid &&
                                          s.chunkIndex == e.chunkIndex;
                               }),
                _spilled.end());
            ++_promotes;
            logInfo("promoted fn=", e.fn, " nsid=", e.nsid, " chunk=",
                    e.chunkIndex, " back to local slot ",
                    int(e.shadowSlot), ":", int(e.shadowChunk));
            (*done_p)(true);
        });
    if (!accepted) {
        --_busy;
        ++_failures;
        schedule(0, [done_p] { (*done_p)(false); });
    }
}

void
TieringManager::forgetNamespace(pcie::FunctionId fn, std::uint32_t nsid)
{
    for (auto it = _spilled.begin(); it != _spilled.end();) {
        if (it->fn != fn || it->nsid != nsid) {
            ++it;
            continue;
        }
        // The namespace's own teardown releases the remote (current)
        // chunk through its record; the shadow and the armed mirror
        // are tier state only the registry knows about.
        _engine.migrationGate().clearTierMirror(it->remoteSlot,
                                                it->remoteChunk);
        _ns.releaseChunk(it->shadowSlot, it->shadowChunk);
        logInfo("forgot spilled fn=", fn, " nsid=", nsid, " chunk=",
                it->chunkIndex, " (namespace destroyed)");
        it = _spilled.erase(it);
    }
}

void
TieringManager::onNodeLoss(int node,
                           std::function<void(RecoveryReport)> done)
{
    ++_nodeLosses;
    if (_downNodes.count(node)) {
        schedule(0, [done = std::move(done)] { done(RecoveryReport{}); });
        return;
    }
    _downNodes.insert(node);
    _recovering = true;
    for (int s = 0; s < _engine.ssdSlots(); ++s) {
        if (_engine.isRemoteSlot(s) && _engine.slotNode(s) == node)
            _ns.quiesceAcquire(s);
    }
    logWarn("storage node ", node, " lost; recovering spilled chunks");
    recoverNow(node, std::move(done));
}

void
TieringManager::recoverNow(int node,
                           std::function<void(RecoveryReport)> done)
{
    // Let any in-flight migration drain first: one touching the dead
    // node aborts on its own once the remote client's timeouts
    // exhaust every segment retry.
    if (!_mig.idle() || _busy > 0) {
        schedule(sim::milliseconds(5), [this, node,
                                        done = std::move(done)]() mutable {
            recoverNow(node, std::move(done));
        });
        return;
    }

    auto rep = std::make_shared<RecoveryReport>();
    auto lost = std::make_shared<std::vector<SpilledChunk>>();
    for (auto it = _spilled.begin(); it != _spilled.end();) {
        if (_engine.slotNode(it->remoteSlot) == node) {
            lost->push_back(*it);
            it = _spilled.erase(it);
        } else {
            ++it;
        }
    }

    for (const SpilledChunk &e : *lost) {
        // The shadow received a strict mirror leg for every write
        // acknowledged since the spill, so flipping the map back to
        // it is loss-free — the same single-instant cutover as a
        // migration, just without a copy.
        _engine.migrationGate().clearTierMirror(e.remoteSlot,
                                                e.remoteChunk);
        NsBinding *binding = _engine.findBinding(e.fn, e.nsid);
        BMS_ASSERT(binding, "spilled chunk of unknown namespace fn=",
                   e.fn, " nsid=", e.nsid);
        const LbaMapGeometry &geom = binding->map.geometry();
        std::uint32_t row = e.chunkIndex / geom.entriesPerRow;
        std::uint32_t col = e.chunkIndex % geom.entriesPerRow;
        bool flipped =
            binding->map.setEntry(row, col, e.shadowChunk, e.shadowSlot);
        BMS_ASSERT(flipped, "recovery map flip rejected at row=", row,
                   " col=", col);
        bool moved = _ns.recordMove(e.fn, e.nsid, e.chunkIndex,
                                    e.shadowSlot, e.shadowChunk);
        BMS_ASSERT(moved, "namespace record lost during recovery");
        _ns.releaseChunk(e.remoteSlot, e.remoteChunk);
        ++rep->recovered;
        ++_recovered;
        logInfo("recovered fn=", e.fn, " nsid=", e.nsid, " chunk=",
                e.chunkIndex, " onto shadow ", int(e.shadowSlot), ":",
                int(e.shadowChunk));
    }
    _recovering = false;

    // Phase two: push the recovered chunks back out to surviving
    // nodes, one at a time (each is a full QoS-paced spill).
    auto idx = std::make_shared<std::size_t>(0);
    auto step = std::make_shared<std::function<void()>>();
    auto done_p =
        std::make_shared<std::function<void(RecoveryReport)>>(
            std::move(done));
    *step = [this, rep, lost, idx, step, done_p] {
        if (*idx >= lost->size() || pickRemoteSlot() < 0) {
            auto fin = std::move(*done_p);
            // Break the step→step reference cycle (it would leak the
            // closure and everything it captures). This branch runs
            // inside *step itself, so move into a local instead of
            // assigning nullptr: the executing closure stays alive
            // until this call returns, then everything unwinds.
            auto self = std::move(*step);
            fin(*rep);
            return;
        }
        const SpilledChunk e = (*lost)[(*idx)++];
        spill(e.fn, e.nsid, e.chunkIndex, -1,
              [this, rep, step](bool ok) {
                  if (ok) {
                      ++rep->respilled;
                      ++_respilled;
                  }
                  (*step)();
              });
    };
    schedule(0, [step] { (*step)(); });
}

void
TieringManager::policyTick()
{
    if (_cfg.policyPeriod == 0)
        return;
    if (!_recovering && _busy == 0 && _mig.idle()) {
        // At most one move per tick: promote the hottest spilled
        // chunk over the threshold, else spill the coldest local one
        // under it (remote space permitting).
        const SpilledChunk *hot = nullptr;
        double hot_heat = 0.0;
        for (const SpilledChunk &e : _spilled) {
            if (_downNodes.count(_engine.slotNode(e.remoteSlot)))
                continue;
            double h =
                _monitor.chunkHeatMbps(e.fn, e.nsid, e.chunkIndex);
            if (h > _cfg.promoteMbpsThreshold &&
                (!hot || h > hot_heat)) {
                hot = &e;
                hot_heat = h;
            }
        }
        if (hot) {
            promote(hot->fn, hot->nsid, hot->chunkIndex, [](bool) {});
        } else if (pickRemoteSlot() >= 0) {
            bool have = false;
            pcie::FunctionId bfn = 0;
            std::uint32_t bnsid = 0, bci = 0;
            double best_heat = 0.0;
            _engine.forEachBinding([&](NsBinding &b) {
                std::uint32_t n = b.map.validCount();
                for (std::uint32_t ci = 0; ci < n; ++ci) {
                    auto a = _ns.chunkAt(b.fn, b.nsid, ci);
                    if (!a || _engine.isRemoteSlot(a->slot))
                        continue;
                    double h =
                        _monitor.chunkHeatMbps(b.fn, b.nsid, ci);
                    if (h >= _cfg.spillMbpsThreshold)
                        continue;
                    if (!have || h < best_heat) {
                        have = true;
                        bfn = b.fn;
                        bnsid = b.nsid;
                        bci = ci;
                        best_heat = h;
                    }
                }
            });
            if (have)
                spill(bfn, bnsid, bci, -1, [](bool) {});
        }
    }
    std::uint64_t gen = _policyGen;
    schedule(_cfg.policyPeriod, [this, gen] {
        if (gen == _policyGen)
            policyTick();
    });
}

} // namespace bms::core
