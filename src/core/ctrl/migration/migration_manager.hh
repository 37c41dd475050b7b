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

    /** Per-job knobs: what the job does, and its copy granularity. */
    struct Options
    {
        /**
         * Move: a generic move; the source frees once drained.
         * Cow: a chunk copy-on-write triggered by a tenant write
         * through a snapshot-shared entry. The source may be shared
         * (that is the point), the namespace may be locked (the
         * TargetController pins it for the chunk op that queued this
         * very job), and the destination may be the source's own slot
         * (CoW changes ownership, not placement).
         * Spill, Promote: tier moves (TieringManager). A spill keeps
         * its source as the shadow; a promote lands on the spilled
         * chunk's shadow and is the only job that may move a spilled
         * chunk. Both cap segment retries at 2.
         */
        MoveKind kind = MoveKind::Move;
        /** Per-job copy granularity (0 = the default 1 MiB; may only
         *  shrink it). */
        std::uint64_t segmentBytes = 0;
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

    /** Re-program the copy bandwidth budget (MB/s; 0 = unpaced). The
     *  budget starts at 400 MB/s. */
    void setBudget(double mbps);
    double budget() const { return _budgetMbps; }

    /**
     * Queue a job of kind @p opts.kind on namespace chunk
     * @p chunk_index of (@p fn, @p nsid) to @p dst_slot (kAutoSlot =
     * emptiest; a promote lands on the chunk's shadow).
     * @return false when the request is malformed; otherwise @p done
     *         fires with the outcome once the migration finishes.
     */
    bool migrate(pcie::FunctionId fn, std::uint32_t nsid,
                 std::uint32_t chunk_index, int dst_slot,
                 std::function<void(Report)> done,
                 Options opts = {MoveKind::Move, 0});

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
        std::uint64_t chunkBlocks = 0, segBlocks = 0;
        std::uint32_t numSegs = 0;
        std::uint32_t copies = 0;
        MigrationState state = MigrationState::Queued;
        sim::Tick startedAt = 0;
        std::uint64_t bytesCopied = 0;
        std::uint32_t copiedSegs = 0;
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
