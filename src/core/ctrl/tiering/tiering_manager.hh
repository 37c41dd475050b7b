/**
 * @file
 * Tiering manager — BMS-Controller service implementing the
 * disaggregated remote chunk tier (paper §VI-D "add remote storage
 * support"). Back-end slots marked remote in the engine's slot
 * catalog resolve to storage-node volumes across the network; this
 * service decides which namespace chunks live there and keeps the
 * arrangement loss-free:
 *
 *   spill     move a cold chunk's primary to a remote node. The old
 *             local chunk is NOT freed: it stays behind as a shadow,
 *             and the MigrationGate mirrors every subsequent write to
 *             it with a *strict* leg (the write fails unless the
 *             shadow has it). The shadow is therefore always a
 *             byte-exact recovery image.
 *   promote   move a hot spilled chunk back onto its shadow — the
 *             shadow already holds every write since the spill, but
 *             the copy re-runs anyway (segments the mirror never saw,
 *             e.g. pre-spill data, are already there; dirty segments
 *             from failed strict legs get re-copied), then the map
 *             flips back and the remote chunk frees.
 *   node loss re-point every chunk the dead node held at its local
 *             shadow (an atomic map flip per chunk — no copy needed,
 *             the strict mirror kept the shadow current), then
 *             re-spill to surviving nodes. Zero tenant data loss.
 *
 * Both moves reuse the MigrationManager's QoS-paced segment
 * copy/mirror/atomic-flip machinery; the only additions are the
 * per-job options (pinned destination, kept source, cutover hook).
 */

#ifndef BMS_CORE_CTRL_TIERING_TIERING_MANAGER_HH
#define BMS_CORE_CTRL_TIERING_TIERING_MANAGER_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/ctrl/io_monitor.hh"
#include "core/ctrl/migration/migration_manager.hh"
#include "core/ctrl/namespace_manager.hh"
#include "core/engine/bms_engine.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Tiering policy knobs (re-programmable via `setTierPolicy`). */
struct TieringConfig
{
    /** Chunks colder than this (MB/s, decayed) are spill candidates. */
    double spillMbpsThreshold = 1.0;
    /** Spilled chunks hotter than this are promote candidates. */
    double promoteMbpsThreshold = 8.0;
    /**
     * Automatic policy period (at most one spill + one promote per
     * tick); 0 = manual, moves happen only via explicit calls or the
     * management verbs.
     */
    sim::Tick policyPeriod = 0;
    /** Copy granularity for tier moves (<= the 1 MiB migration segment). */
    std::uint64_t tieringSegmentBytes = sim::kib(256);
};

/** Heat-driven local<->remote chunk placement with loss recovery. */
class TieringManager : public sim::SimObject
{
  public:
    /** One chunk whose primary lives on a remote node. */
    struct SpilledChunk
    {
        pcie::FunctionId fn = 0;
        std::uint32_t nsid = 1;
        std::uint32_t chunkIndex = 0;
        std::uint8_t remoteSlot = 0;
        std::uint8_t remoteChunk = 0;
        std::uint8_t shadowSlot = 0;
        std::uint8_t shadowChunk = 0;
    };

    /** Outcome of one storage-node loss. */
    struct RecoveryReport
    {
        bool ok = true;
        std::uint32_t recovered = 0; ///< chunks flipped back to shadow
        std::uint32_t respilled = 0; ///< re-spilled to surviving nodes
    };

    /** @p monitor is the automatic policy's heat source. */
    TieringManager(sim::Simulator &sim, std::string name,
                   BmsEngine &engine, NamespaceManager &ns,
                   MigrationManager &migration, IoMonitor &monitor,
                   TieringConfig cfg = TieringConfig());

    /** Re-program thresholds/period; (re)starts the policy timer. */
    void setPolicy(TieringConfig cfg);
    const TieringConfig &policy() const { return _cfg; }

    /**
     * Spill chunk @p chunk_index of (@p fn, @p nsid) to a remote
     * slot (@p remote_slot, or -1 = first usable one). @p done fires
     * with the outcome once the move (or its rejection) finishes.
     */
    void spill(pcie::FunctionId fn, std::uint32_t nsid,
               std::uint32_t chunk_index, int remote_slot,
               std::function<void(bool)> done);

    /** Promote a spilled chunk back onto its local shadow. */
    void promote(pcie::FunctionId fn, std::uint32_t nsid,
                 std::uint32_t chunk_index,
                 std::function<void(bool)> done);

    /**
     * Namespace (@p fn, @p nsid) is being destroyed: disarm its tier
     * mirrors, free its shadow chunks, and drop its registry entries
     * (the namespace's own release covers its current chunks).
     */
    void forgetNamespace(pcie::FunctionId fn, std::uint32_t nsid);

    /**
     * Storage node @p node is gone (all its volumes with it).
     * Re-points every chunk it held at the local shadow and
     * re-spills to surviving nodes; @p done fires when both phases
     * finish. Any migration in flight is allowed to drain/abort
     * first (I/O to the dead node errors out via client timeouts).
     */
    void onNodeLoss(int node,
                    std::function<void(RecoveryReport)> done);

    /** @name Introspection. */
    /// @{
    const std::vector<SpilledChunk> &spilled() const { return _spilled; }
    bool isSpilled(pcie::FunctionId fn, std::uint32_t nsid,
                   std::uint32_t chunk_index) const;
    bool idle() const { return _busy == 0 && !_recovering; }
    bool nodeDown(int node) const { return _downNodes.count(node) > 0; }

    std::uint32_t spills() const { return _spills; }
    std::uint32_t promotes() const { return _promotes; }
    std::uint32_t failures() const { return _failures; }
    std::uint32_t nodeLosses() const { return _nodeLosses; }
    std::uint32_t chunksRecovered() const { return _recovered; }
    std::uint32_t chunksRespilled() const { return _respilled; }
    /// @}

  private:
    void policyTick();
    void recoverNow(int node, std::function<void(RecoveryReport)> done);
    int pickRemoteSlot() const;
    SpilledChunk *find(pcie::FunctionId fn, std::uint32_t nsid,
                       std::uint32_t chunk_index);

    BmsEngine &_engine;
    NamespaceManager &_ns;
    MigrationManager &_mig;
    TieringConfig _cfg;
    IoMonitor &_monitor;

    std::vector<SpilledChunk> _spilled;
    std::unordered_set<int> _downNodes;
    int _busy = 0; ///< tier moves in flight (spill/promote)
    bool _recovering = false;
    std::uint64_t _policyGen = 0; ///< invalidates stale policy timers

    std::uint32_t _spills = 0;
    std::uint32_t _promotes = 0;
    std::uint32_t _failures = 0;
    std::uint32_t _nodeLosses = 0;
    std::uint32_t _recovered = 0;
    std::uint32_t _respilled = 0;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_TIERING_TIERING_MANAGER_HH
