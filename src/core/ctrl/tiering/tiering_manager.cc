#include "core/ctrl/tiering/tiering_manager.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/check.hh"

namespace bms::core {

TieringManager::TieringManager(sim::Simulator &sim, std::string name,
                               BmsEngine &engine, NamespaceManager &ns,
                               MigrationManager &migration,
                               IoMonitor &monitor)
    : SimObject(sim, std::move(name)), _engine(engine), _ns(ns),
      _mig(migration), _monitor(monitor)
{
    registerStat("spills", [this] { return double(_spills); });
    registerStat("promotes", [this] { return double(_promotes); });
    registerStat("failures", [this] { return double(_failures); });
    registerStat("nodeLosses", [this] { return double(_nodeLosses); });
    registerStat("chunksRecovered", [this] { return double(_recovered); });
    registerStat("chunksRespilled", [this] { return double(_respilled); });
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
    // A spilled chunk already sits on a remote slot.
    auto alloc = _ns.chunkAt(fn, nsid, chunk_index);
    int rs = remote_slot < 0 ? pickRemoteSlot() : remote_slot;
    bool valid = !_recovering && alloc && !_engine.isRemoteSlot(alloc->slot) &&
                 rs >= 0 && rs < _engine.ssdSlots() &&
                 _engine.isRemoteSlot(rs) &&
                 !_downNodes.count(_engine.slotNode(rs)) &&
                 _engine.adaptor(rs).ready() && _ns.freeChunks(rs) > 0;
    queueMove(valid, MoveKind::Spill, fn, nsid, chunk_index, rs,
              std::move(done));
}

void
TieringManager::promote(pcie::FunctionId fn, std::uint32_t nsid,
                        std::uint32_t chunk_index,
                        std::function<void(bool)> done)
{
    auto alloc = _ns.chunkAt(fn, nsid, chunk_index);
    bool valid = alloc && _ns.shadowOf(*alloc) && !_recovering &&
                 !_downNodes.count(_engine.slotNode(alloc->slot));
    queueMove(valid, MoveKind::Promote, fn, nsid, chunk_index,
              MigrationManager::kAutoSlot, std::move(done));
}

void
TieringManager::queueMove(bool valid, MoveKind kind, pcie::FunctionId fn,
                          std::uint32_t nsid, std::uint32_t chunk_index,
                          int dst_slot, std::function<void(bool)> done)
{
    auto done_p =
        std::make_shared<std::function<void(bool)>>(std::move(done));
    auto fail = [this, done_p] {
        ++_failures;
        schedule(0, [done_p] { (*done_p)(false); });
    };
    if (!valid) {
        fail();
        return;
    }
    ++_busy;
    bool accepted = _mig.migrate(
        fn, nsid, chunk_index, dst_slot,
        [this, kind, fn, nsid, chunk_index,
         done_p](MigrationManager::Report r) {
            --_busy;
            // Without a flip nothing changed: a spill's chunk stays
            // local, a promote's stays spilled with its mirror armed.
            if (!r.ok) {
                ++_failures;
                (*done_p)(false);
                return;
            }
            ++(kind == MoveKind::Spill ? _spills : _promotes);
            logInfo(kind == MoveKind::Spill ? "spilled" : "promoted",
                    " fn=", fn, " nsid=", nsid, " chunk=", chunk_index,
                    " (", r.srcSlot, ":", r.srcChunk, ") -> (", r.dstSlot,
                    ":", r.dstChunk, ")");
            (*done_p)(true);
        },
        {kind, _cfg.tieringSegmentBytes});
    if (!accepted) {
        --_busy;
        fail();
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
    for (const SpilledChunk &e : _ns.spilled())
        if (_engine.slotNode(e.remoteSlot) == node)
            lost->push_back(e);

    for (const SpilledChunk &e : *lost) {
        // The shadow received a strict mirror leg for every write
        // acknowledged since the spill, so flipping the map back to
        // it is loss-free: a promote's flip without the copy. The
        // dead node's chunk frees at once (nothing lands on it).
        NamespaceManager::Allocation remote{e.remoteSlot, e.remoteChunk};
        _ns.flip(MoveKind::Promote, e.fn, e.nsid, e.chunkIndex, remote,
                 {e.shadowSlot, e.shadowChunk});
        _ns.releaseChunk(remote.slot, remote.chunk);
        ++rep->recovered;
        ++_recovered;
        logInfo("recovered fn=", e.fn, " nsid=", e.nsid, " chunk=",
                e.chunkIndex, " onto shadow ", e.shadowSlot, ":",
                e.shadowChunk);
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
        const std::vector<SpilledChunk> spilled = _ns.spilled();
        for (const SpilledChunk &e : spilled) {
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
