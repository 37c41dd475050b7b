/**
 * @file
 * Migration gate — the engine-side fencing logic that lets a live
 * chunk be copied to another SSD while tenant I/O keeps flowing
 * (the data-plane half of the BMS-Controller's MigrationManager).
 *
 * Every front-end I/O is admitted through the gate at translate time,
 * so the gate always knows the in-flight physical extents per
 * (slot, chunk). While a migration is open on a chunk:
 *
 *  - reads always proceed to the source (authoritative until cutover);
 *  - a write whose extent touches the segment currently being copied
 *    is held and released once that segment's copy lands;
 *  - a write touching an already-copied segment is mirrored to the
 *    destination chunk; the front-end completion waits for both legs
 *    so a read issued after the CQE sees the data on either side of
 *    the cutover;
 *  - a failed mirror leg does not fail the tenant write (the source
 *    leg is authoritative) — the touched segments are re-queued dirty
 *    and copied again.
 *
 * Copying a segment is: fenceNextSegment() (waits in-flight writes to
 * that segment to drain, holds new ones), the manager copies it
 * through the host adaptors, segmentCopied(). When fenceNextSegment()
 * reports nothing left, every byte of the chunk is on the destination
 * and every in-flight write is mirrored — flipping the LbaMapTable
 * entry at that instant is loss-free.
 */

#ifndef BMS_CORE_ENGINE_MIGRATION_GATE_HH
#define BMS_CORE_ENGINE_MIGRATION_GATE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hh"

namespace bms::core {

/** One chunk-contiguous physical extent of a front-end command. */
struct PhysExtent
{
    std::uint8_t ssdId = 0;
    std::uint64_t physLba = 0;
    std::uint64_t byteOffset = 0; ///< offset within the transfer
    std::uint64_t blocks = 0;
    /**
     * A strict mirror leg must succeed for the command to succeed
     * (tier shadow copies, where the mirror is the recovery image);
     * ordinary migration mirrors are best-effort (dirty re-queue on
     * failure). Only meaningful on mirror legs.
     */
    bool strict = false;
};

/** In-flight fencing + write mirroring for live chunk migration. */
class MigrationGate : public sim::SimObject
{
  public:
    /**
     * Admission result: the opaque token to complete() with, the
     * original extents handed back, and the mirror legs (same
     * byteOffset/blocks, destination chunk) to submit alongside.
     */
    using Cont = std::function<void(std::uint64_t token,
                                    std::vector<PhysExtent> extents,
                                    std::vector<PhysExtent> mirrors)>;

    MigrationGate(sim::Simulator &sim, std::string name);

    /** @name Data-path hooks (TargetController). */
    /// @{
    /**
     * Admit one translated front-end command. @p cont runs
     * immediately unless the command is a write into the fenced
     * segment, in which case it is held until the segment's copy
     * lands (or the migration closes).
     */
    void admit(bool is_write, std::vector<PhysExtent> extents,
               std::uint64_t chunk_blocks, Cont cont);

    /**
     * Complete a previously admitted command. @p mirror_ok is false
     * when any mirror leg failed (the touched copied segments are
     * re-queued dirty).
     */
    void complete(std::uint64_t token, bool mirror_ok);
    /// @}

    /** @name Migration control (MigrationManager; one at a time). */
    /// @{
    /** Open a migration of (src_slot, src_chunk) → (dst_slot, dst_chunk). */
    void open(std::uint8_t src_slot, std::uint8_t src_chunk,
              std::uint8_t dst_slot, std::uint8_t dst_chunk,
              std::uint64_t chunk_blocks, std::uint64_t seg_blocks);

    /**
     * Fence the next segment needing a copy (dirty re-queues first).
     * @p fenced fires — possibly later, once in-flight writes to the
     * segment drain — with the segment index. Returns false when
     * every segment is copied and clean (time to cut over).
     */
    bool fenceNextSegment(std::function<void(std::uint32_t)> fenced);

    /** The fenced segment's copy landed; releases held writes. */
    void segmentCopied(std::uint32_t seg);

    /** End the migration (after cutover, or abort); releases holds. */
    void closeMigration();

    /** Fire @p idle once no admitted I/O touches (slot, chunk). */
    void whenChunkIdle(std::uint8_t slot, std::uint8_t chunk,
                       std::function<void()> idle);
    /// @}

    /** @name Tier shadow mirrors (TieringManager). */
    /// @{
    /**
     * Every write landing on (src_slot, src_chunk) — a spilled
     * chunk's remote primary — also carries a strict mirror leg to
     * (dst_slot, dst_chunk), its local shadow, until cleared. Unlike
     * migration mirrors these persist across migrations and must
     * succeed for the tenant write to succeed: the shadow is the
     * loss-recovery image, so it may never silently fall behind.
     */
    void setTierMirror(std::uint8_t src_slot, std::uint32_t src_chunk,
                       std::uint8_t dst_slot, std::uint32_t dst_chunk);
    void clearTierMirror(std::uint8_t src_slot, std::uint32_t src_chunk);
    std::size_t tierMirrorCount() const { return _tierMirrors.size(); }
    std::uint64_t tierMirroredWrites() const { return _tierMirrored; }
    /// @}

    /** @name Introspection. */
    /// @{
    bool migrationActive() const { return _active; }

    /** True while the open migration reads or writes (slot, chunk) —
     *  the TargetController's deallocate path must not free or scrub
     *  a physical chunk the copier is touching. */
    bool
    migrationTouches(std::uint8_t slot, std::uint32_t chunk) const
    {
        return _active && ((_srcSlot == slot && _srcChunk == chunk) ||
                           (_dstSlot == slot && _dstChunk == chunk));
    }
    std::uint32_t totalSegments() const { return _numSegs; }
    std::size_t heldCount() const { return _held.size(); }
    std::uint64_t mirroredWrites() const { return _mirrored; }
    std::uint64_t heldWrites() const { return _heldTotal; }
    std::uint64_t dirtyRequeues() const { return _dirtyRequeues; }
    std::uint64_t admitted() const { return _admitted; }
    /// @}

  private:
    struct Rec
    {
        bool isWrite = false;
        std::uint32_t epoch = 0;   ///< migration epoch at admit
        bool segTracked = false;   ///< counted in _segWrites
        std::vector<PhysExtent> extents;
        std::vector<std::uint32_t> segs; ///< touched src-chunk segments
        bool mirrored = false;
        std::vector<std::uint32_t> chunkKeys; ///< extents + mirrors
    };

    struct Held
    {
        bool isWrite = false;
        std::vector<PhysExtent> extents;
        std::uint64_t chunkBlocks = 0;
        Cont cont;
    };

    static std::uint32_t
    chunkKey(std::uint8_t slot, std::uint64_t chunk)
    {
        return (static_cast<std::uint32_t>(slot) << 16) |
               static_cast<std::uint32_t>(chunk & 0xffff);
    }

    bool onSrcChunk(const PhysExtent &e, std::uint64_t chunk_blocks) const;
    std::vector<std::uint32_t> touchedSegs(const PhysExtent &e) const;
    bool touchesFenced(const std::vector<PhysExtent> &extents,
                       std::uint64_t chunk_blocks) const;
    void admitNow(bool is_write, std::vector<PhysExtent> extents,
                  std::uint64_t chunk_blocks, Cont cont);
    void deliverFence();
    void releaseHeld();
    void fireIdleWaiters(std::uint32_t key);

    /** Local shadow target of one spilled chunk. */
    struct TierTarget
    {
        std::uint8_t slot = 0;
        std::uint32_t chunk = 0;
    };

    // Always-on in-flight accounting.
    std::unordered_map<std::uint64_t, Rec> _recs;
    /** Spilled-chunk key → local shadow (persists across migrations). */
    std::unordered_map<std::uint32_t, TierTarget> _tierMirrors;
    std::uint64_t _tierMirrored = 0;
    std::uint64_t _nextToken = 1;
    std::unordered_map<std::uint32_t, std::uint32_t> _chunkInflight;
    std::vector<std::pair<std::uint32_t, std::function<void()>>>
        _idleWaiters;

    // Active migration.
    bool _active = false;
    std::uint32_t _epoch = 0;
    std::uint8_t _srcSlot = 0, _srcChunk = 0, _dstSlot = 0, _dstChunk = 0;
    std::uint64_t _chunkBlocks = 0, _segBlocks = 0;
    std::uint32_t _numSegs = 0;
    std::vector<bool> _copied;
    std::vector<std::uint32_t> _segWrites;
    std::deque<std::uint32_t> _dirty;
    std::vector<bool> _inDirty;
    std::uint32_t _cursor = 0;
    int _fencedSeg = -1;
    bool _fenceReady = false;
    std::function<void(std::uint32_t)> _fenceCb;
    std::deque<Held> _held;

    std::uint64_t _admitted = 0;
    std::uint64_t _mirrored = 0;
    std::uint64_t _heldTotal = 0;
    std::uint64_t _dirtyRequeues = 0;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_MIGRATION_GATE_HH
