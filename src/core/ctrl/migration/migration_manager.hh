/**
 * @file
 * Migration manager — BMS-Controller service that moves live chunks
 * between back-end SSDs with zero data loss and bounded tenant
 * impact. The paper's hot-plug flow (§IV-D) keeps front-end NVMe
 * identities but leaves data restoration "to a higher layer"; this is
 * that layer.
 *
 * A migration copies one chunk in bounded segments through the engine
 * data path (read from the source adaptor into a chip-memory staging
 * buffer, write to the destination adaptor) while the engine-side
 * MigrationGate fences and mirrors tenant writes. On completion the
 * LbaMapTable entry flips atomically — the one-byte entry of
 * Fig. 4(a) is exactly what makes cutover a single-instant decision —
 * and the source chunk returns to the NamespaceManager free pool.
 *
 * Copy traffic is paced through the engine's QoS module under its own
 * budget key, so migration yields to tenant I/O the same way a noisy
 * namespace does. Policies on top of the chunk mover:
 *
 *   evacuate(slot)   drain every chunk off an SSD (lossless hot-plug)
 *   rebalanceOnce()  move one chunk from the fullest/hottest SSD to
 *                    the emptiest/coldest one
 */

#ifndef BMS_CORE_CTRL_MIGRATION_MIGRATION_MANAGER_HH
#define BMS_CORE_CTRL_MIGRATION_MIGRATION_MANAGER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/ctrl/io_monitor.hh"
#include "core/ctrl/namespace_manager.hh"
#include "core/engine/bms_engine.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Live chunk migration: the mover plus evacuation/rebalance policies. */
class MigrationManager : public sim::SimObject
{
  public:
    /** Destination sentinel: pick the best slot at start time. */
    static constexpr int kAutoSlot = -2;

    struct Report
    {
        bool ok = false;
        std::uint32_t id = 0;
        std::uint8_t srcSlot = 0;
        std::uint8_t dstSlot = 0;
        std::uint8_t srcChunk = 0;
        std::uint8_t dstChunk = 0;
        sim::Tick elapsed = 0;
        std::uint64_t bytesCopied = 0;
    };

    /** Per-job knobs used by the tiering manager. */
    struct Options
    {
        /**
         * Destination physical chunk already owned by the caller
         * (-1 = reserve one via takeChunk). A promote lands on the
         * spilled chunk's existing local shadow, which the tiering
         * manager never released.
         */
        int pinnedDstChunk = -1;
        /**
         * Keep the source chunk allocated after cutover (a spill
         * turns the old local chunk into the shadow copy instead of
         * freeing it).
         */
        bool keepSource = false;
        /**
         * Runs synchronously at cutover with the resolved
         * (dst_slot, dst_chunk), immediately before the map entry
         * flips (the tiering manager arms/clears the gate's tier
         * mirror inside this same instant, so no write can slip
         * between the mirror change and the flip).
         */
        std::function<void(std::uint8_t, std::uint8_t)> beforeCutover;
        /** Per-job copy granularity (0 = the default 1 MiB; may only
         *  shrink it). */
        std::uint64_t segmentBytes = 0;
        /**
         * Permit a source chunk the tiering registry owns (promote
         * and respill paths only). Generic moves of a spilled chunk
         * are refused: they would strand the armed strict mirror and
         * stale the shadow the loss recovery depends on.
         */
        bool allowTieredSource = false;
        /**
         * This job is a chunk copy-on-write triggered by a tenant
         * write through a snapshot-shared mapping entry. It relaxes
         * three generic-move refusals: the source may carry a shared
         * entry (that is the point), the namespace may be locked (the
         * TargetController pins it for the chunk op that queued this
         * very job), and the destination may be the source's own slot
         * (CoW changes ownership, not placement).
         */
        bool cowSource = false;
        /**
         * Per-job segment-retry cap (-1 = the default 16). Tier
         * moves lower it: the remote transport already retries each
         * I/O internally, and a write held behind a fenced segment
         * waits out every retry — against a dead node that is
         * ~750 ms per attempt, so 16 of them would stall tenants
         * past the transparency budget.
         */
        int maxSegmentRetries = -1;
    };

    struct EvacReport
    {
        bool ok = false;
        std::uint32_t moved = 0;
        std::uint32_t failed = 0;
        sim::Tick elapsed = 0;
    };

    /** @p monitor supplies the per-slot rates load-aware placement
     *  reads. */
    MigrationManager(sim::Simulator &sim, std::string name,
                     BmsEngine &engine, NamespaceManager &ns,
                     IoMonitor &monitor);

    /** Predicate marking chunks owned by the tiering registry (their
     *  generic migration is refused; see Options::allowTieredSource).
     *  Required: the BMS-Controller installs it before any migration
     *  can start. */
    void setTieredSourceGuard(
        std::function<bool(pcie::FunctionId, std::uint32_t, std::uint32_t)>
            guard)
    {
        _tierGuard = std::move(guard);
    }

    /** Re-program the copy bandwidth budget (MB/s; 0 = unpaced). The
     *  budget starts at 400 MB/s. */
    void setBudget(double mbps);
    double budget() const { return _budgetMbps; }

    /**
     * Queue a migration of namespace chunk @p chunk_index of
     * (@p fn, @p nsid) to @p dst_slot (kAutoSlot = emptiest).
     * @return false when the request is malformed; otherwise @p done
     *         fires with the outcome once the migration finishes.
     */
    bool migrate(pcie::FunctionId fn, std::uint32_t nsid,
                 std::uint32_t chunk_index, int dst_slot,
                 std::function<void(Report)> done);

    /** Same, with per-job options (tiering spill/promote). */
    bool migrate(pcie::FunctionId fn, std::uint32_t nsid,
                 std::uint32_t chunk_index, int dst_slot, Options opts,
                 std::function<void(Report)> done);

    /**
     * Drain every chunk off @p slot. The slot is quiesced (no new
     * allocations) for the duration. The report is ok only when every
     * move succeeded and the slot's pool ends with no referenced
     * chunk: a chunk that landed during the drain, a tier shadow or a
     * snapshot-only chunk keeps the slot in use.
     */
    void evacuate(int slot, std::function<void(EvacReport)> done);

    /**
     * One rebalance step: move a chunk from the fullest (ties: the
     * hottest per the I/O monitor) SSD to the one with the most free
     * chunks (ties: the coldest). @return false when occupancy is
     * already balanced (spread <= 1 chunk) or no move is possible.
     */
    bool rebalanceOnce(std::function<void(Report)> done);

    /** Active + queued + recently finished migrations. */
    std::vector<MiMigrationInfo> status() const;

    bool idle() const { return !_current && _queue.empty(); }

    /** @name Counters. */
    /// @{
    std::uint32_t started() const { return _started; }
    std::uint32_t completed() const { return _completed; }
    std::uint32_t aborted() const { return _aborted; }
    std::uint32_t rejected() const { return _rejected; }
    std::uint32_t evacuations() const { return _evacuations; }
    std::uint64_t bytesCopied() const { return _bytesCopied; }
    std::uint64_t segmentRetries() const { return _segmentRetries; }
    /// @}

  private:
    struct Job
    {
        std::uint32_t id = 0;
        pcie::FunctionId fn = 0;
        std::uint32_t nsid = 1;
        std::uint32_t chunkIndex = 0;
        int dstSlot = kAutoSlot;
        Options opts;
        std::function<void(Report)> done;

        // Resolved at start.
        std::uint8_t srcSlot = 0, srcChunk = 0;
        std::uint8_t dSlot = 0, dChunk = 0;
        std::uint32_t row = 0, col = 0;
        std::uint64_t chunkBlocks = 0, segBlocks = 0;
        std::uint32_t numSegs = 0;
        std::uint32_t copies = 0;
        MigrationState state = MigrationState::Queued;
        sim::Tick startedAt = 0;
        std::uint64_t bytesCopied = 0;
        std::uint32_t copiedSegs = 0;
        bool opened = false, nsLocked = false, dstTaken = false;
    };

    void startNext();
    void failBeforeCopy(const char *why);
    void copyLoop();
    void copySegment(std::uint32_t seg, int attempt);
    void writeSegment(std::uint32_t seg, int attempt,
                      std::uint32_t blocks, std::uint64_t bytes);
    void segmentFailed(std::uint32_t seg, int attempt, const char *leg);
    void cutover();
    void abortCurrent(const char *why);
    void finishCurrent(bool ok);
    int pickDestination(int src_slot) const;
    double slotLoadMbps(int slot) const;
    /** A firmware upgrade holds @p slot: copying waits it out. */
    bool upgrading(int slot) const
    {
        return _engine.slotOwner(slot) == SlotOwner::Upgrade;
    }
    /** Both ends of the current copy can take a command (a hot-plug
     *  swap leaves an adaptor not ready). */
    bool endsReady() const;
    void ensureBuffers();
    void setPrps(nvme::Sqe &sqe, std::uint64_t bytes) const;
    MiMigrationInfo snapshot(const Job &j) const;

    BmsEngine &_engine;
    NamespaceManager &_ns;
    double _budgetMbps;
    IoMonitor &_monitor;
    std::function<bool(pcie::FunctionId, std::uint32_t, std::uint32_t)>
        _tierGuard;

    std::uint32_t _qosKey;
    std::uint64_t _buf = 0;  ///< chip-memory staging buffer
    std::uint64_t _list = 0; ///< chip-memory PRP list for the buffer

    std::deque<Job> _queue;
    std::optional<Job> _current;
    std::uint32_t _nextId = 1;
    std::deque<MiMigrationInfo> _history;

    std::uint32_t _started = 0;
    std::uint32_t _completed = 0;
    std::uint32_t _aborted = 0;
    std::uint32_t _rejected = 0;
    std::uint32_t _evacuations = 0;
    std::uint64_t _bytesCopied = 0;
    std::uint64_t _segmentRetries = 0;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_MIGRATION_MIGRATION_MANAGER_HH
