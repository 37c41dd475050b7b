/**
 * @file
 * Namespace manager — the BMS-Controller service that carves back-end
 * SSD capacity into 64 GiB chunks and binds namespaces to front-end
 * PF/VFs (paper §IV-C "the back-end storage resources can be
 * dynamically divided into multiple namespaces for the front-end
 * virtual function").
 *
 * Destroyed namespaces return their chunks to the per-SSD free pool,
 * where allocate/grow and the MigrationManager reuse them. The same
 * pools back the per-SSD occupancy report surfaced through the `df`
 * console verb and `ioStats`.
 */

#ifndef BMS_CORE_CTRL_NAMESPACE_MANAGER_HH
#define BMS_CORE_CTRL_NAMESPACE_MANAGER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine/bms_engine.hh"
#include "core/mgmt/nvme_mi.hh"

namespace bms::core {

/** Chunk allocator + namespace lifecycle. */
class NamespaceManager
{
  public:
    /** Placement policy for a namespace's chunks. */
    enum class Policy
    {
        RoundRobin, ///< stripe chunks across SSDs (paper's Fig. 11 setup)
        Pack,       ///< fill one SSD before using the next
        Dedicate,   ///< all chunks on one SSD (pin_slot required)
    };

    /**
     * Sentinel slot id for a thin-namespace chunk that has not been
     * allocated yet (no physical backing; reads return zeroes).
     */
    static constexpr std::uint8_t kUnallocSlot = 0xff;

    /** One chunk's physical placement. */
    struct Allocation
    {
        std::uint8_t slot;
        std::uint8_t chunk;

        bool unallocated() const { return slot == kUnallocSlot; }
    };

    /** Per-SSD chunk occupancy (the `df` report). */
    struct Occupancy
    {
        int slot = 0;
        std::uint64_t total = 0;
        std::uint64_t used = 0;
        std::uint64_t free = 0;
        /**
         * Promised (logical) chunks attributed to this slot: chunks
         * mapped here plus an even share of not-yet-allocated thin
         * chunks across allocatable local slots. Under thin
         * provisioning `logical` can exceed `total` — that is the
         * overcommit, visible per slot in `df`/`ioStats`.
         */
        std::uint64_t logical = 0;
        bool quiesced = false;
        bool remote = false; ///< a storage-node volume, not a local SSD
    };

    /** One mapped chunk and the namespace owning it. */
    struct ChunkRef
    {
        pcie::FunctionId fn = 0;
        std::uint32_t nsid = 1;
        std::uint32_t chunkIndex = 0; ///< position in the mapping table
        std::uint8_t slot = 0;
        std::uint8_t chunk = 0;
    };

    explicit NamespaceManager(BmsEngine &engine,
                              LbaMapGeometry geom = LbaMapGeometry())
        : _engine(engine), _geom(geom)
    {}

    /**
     * Register back-end SSD @p slot with @p capacity_bytes of raw
     * capacity (called once the host adaptor reports ready). Remote
     * slots (storage-node volumes) join the pool set but are skipped
     * by capacity placement — only the tiering manager spills onto
     * them (Dedicate placement may still pin to one explicitly).
     */
    void registerSsd(int slot, std::uint64_t capacity_bytes,
                     bool remote = false);

    /**
     * Allocate chunks for a namespace of @p bytes and bind it to
     * function @p fn. Size is rounded up to whole chunks for
     * allocation; the namespace advertises exactly @p bytes.
     * @return the nsid, or nullopt when capacity or table space is
     *         exhausted.
     */
    std::optional<std::uint32_t>
    createAndAttach(pcie::FunctionId fn, std::uint64_t bytes,
                    Policy policy = Policy::RoundRobin,
                    QosLimits qos = QosLimits(), int pin_slot = -1);

    /**
     * Create a **thin** namespace: capacity is promised, not
     * reserved. No chunks are allocated — the mapping table starts
     * empty, reads of never-written chunks return zeroes from the
     * engine without touching media, and the first write to a chunk
     * allocates physical backing under the stored placement policy
     * (allocateChunkAt). Creation succeeds as long as the mapping
     * table can describe @p bytes, regardless of free pool space —
     * this is what lets 10x more namespaces exist than raw capacity.
     */
    std::optional<std::uint32_t>
    createThin(pcie::FunctionId fn, std::uint64_t bytes,
               Policy policy = Policy::RoundRobin,
               QosLimits qos = QosLimits(), int pin_slot = -1);

    /**
     * Grow an existing namespace by @p extra_bytes, allocating
     * whatever additional chunks the new advertised size needs. Safe
     * under live I/O: the mapping table only gains entries, so
     * in-flight commands to the existing range are unaffected; hosts
     * see the new size on their next Identify.
     * @return the new advertised size in bytes, or nullopt when the
     *         namespace is unknown or chunk/table space is exhausted.
     */
    std::optional<std::uint64_t>
    grow(pcie::FunctionId fn, std::uint32_t nsid, std::uint64_t extra_bytes,
         Policy policy = Policy::RoundRobin, int pin_slot = -1);

    /**
     * Destroy a namespace and free its chunks. Refused (returns
     * false) while a migration holds the namespace locked.
     */
    bool destroy(pcie::FunctionId fn, std::uint32_t nsid);

    std::uint64_t freeChunks(int slot) const;
    std::uint64_t totalChunks(int slot) const;

    /** Per-SSD chunk occupancy, one entry per registered slot. */
    std::vector<Occupancy> occupancy() const;

    /** Every mapped chunk currently on @p slot. */
    std::vector<ChunkRef> chunksOn(int slot) const;

    /** Placement of one namespace chunk by mapping-table index. */
    std::optional<Allocation> chunkAt(pcie::FunctionId fn,
                                      std::uint32_t nsid,
                                      std::uint32_t chunk_index) const;

    /** @name Thin provisioning / deallocate. */
    /// @{
    /** True when fn/nsid exists and was created thin (or is a clone). */
    bool isThin(pcie::FunctionId fn, std::uint32_t nsid) const;

    /**
     * Allocate physical backing for thin chunk @p chunk_index under
     * the namespace's stored policy. The mapping-table entry is NOT
     * programmed — the engine does that once the chunk has been
     * scrubbed (WriteZeroes), so reads meanwhile still zero-fill.
     * @return the placement, or nullopt when the pools are exhausted
     *         (the write then fails with CapacityExceeded).
     */
    std::optional<Allocation> allocateChunkAt(pcie::FunctionId fn,
                                              std::uint32_t nsid,
                                              std::uint32_t chunk_index);

    /**
     * Deallocate chunk @p chunk_index (full-chunk TRIM): invalidates
     * the mapping entry and drops this namespace's reference — the
     * chunk returns to the free pool unless a snapshot still pins it.
     * The caller must have drained in-flight I/O to the chunk first
     * (MigrationGate::whenChunkIdle). @return false when unknown or
     * already unallocated.
     */
    bool freeChunkAt(pcie::FunctionId fn, std::uint32_t nsid,
                     std::uint32_t chunk_index);
    /// @}

    /** @name Chunk-CoW snapshots and clones. */
    /// @{
    /**
     * Pin the namespace's current content as a snapshot: every
     * allocated chunk gains a pool reference and its mapping entry is
     * marked shared, so subsequent tenant writes trigger chunk CoW.
     * Refused (nullopt) while the namespace is locked (migration or
     * CoW in flight), while a thin allocation is still scrubbing, or
     * when any chunk sits on a remote tier slot.
     * @return the snapshot id.
     */
    std::optional<std::uint32_t> snapshot(pcie::FunctionId fn,
                                          std::uint32_t nsid);

    /**
     * Instantly materialise a writable namespace on @p fn from a
     * snapshot — no data is copied: the clone's mapping table points
     * at the snapshot's pinned chunks (shared), never-written chunks
     * stay unallocated, and the clone diverges chunk-by-chunk via CoW
     * on first write. @return the new nsid.
     */
    std::optional<std::uint32_t> clone(std::uint32_t snap_id,
                                       pcie::FunctionId fn,
                                       QosLimits qos = QosLimits());

    /** Drop a snapshot's pins; chunks with no remaining owner return
     *  to the pool. @return false for an unknown id. */
    bool deleteSnapshot(std::uint32_t snap_id);

    /** Live snapshots, sorted by id. */
    std::vector<MiSnapInfo> snapshots() const;

    /** Pool reference count of (@p slot, @p chunk); 0 == free. */
    std::uint16_t chunkRefs(int slot, std::uint8_t chunk) const;

    /**
     * Structure-wide refcount self-check (BMS_ASSERT on violation):
     * every pool chunk's refcount covers the namespace and snapshot
     * records naming it, and a valid mapping entry is marked shared
     * iff its chunk has other owners. Runs after snapshot lifecycle
     * mutations under Check::paranoid() with @p strict false — a
     * migration source holds one extra transient reference between
     * its cutover and the idle-wait release, so mid-run only
     * refs >= owners can be asserted. Tests at drained points call
     * this directly with @p strict true to demand exact equality.
     */
    void checkRefInvariants(bool strict = true) const;
    /// @}

    /** @name Migration support. */
    /// @{
    /** Reserve one free chunk on @p slot (refused while quiesced). */
    std::optional<std::uint8_t> takeChunk(int slot);

    /**
     * Drop one reference to a chunk; it returns to @p slot's free
     * pool when no namespace or snapshot references remain.
     */
    void releaseChunk(int slot, std::uint8_t chunk);

    /**
     * Record that a namespace chunk moved (after the map entry
     * flipped). The destination chunk must have been reserved with
     * takeChunk(); the caller releases the source separately.
     */
    bool recordMove(pcie::FunctionId fn, std::uint32_t nsid,
                    std::uint32_t chunk_index, std::uint8_t new_slot,
                    std::uint8_t new_chunk);

    /** Lock a namespace against destroy (nested). */
    bool lockNs(pcie::FunctionId fn, std::uint32_t nsid);
    void unlockNs(pcie::FunctionId fn, std::uint32_t nsid);
    bool locked(pcie::FunctionId fn, std::uint32_t nsid) const;

    /** Exclude @p slot from new allocations (nested, refcounted). */
    void quiesceAcquire(int slot);
    void quiesceRelease(int slot);
    bool quiesced(int slot) const;
    /// @}

    const LbaMapGeometry &geometry() const { return _geom; }

    /** Chunk size in blocks (from the configured map geometry). */
    std::uint64_t chunkBlocks() const { return _geom.chunkBlocks; }

  private:
    struct Pool
    {
        int slot = 0;
        /** Per-chunk owner count: 0 == free, 1 == private, >1 ==
         *  shared between a namespace and snapshots/clones. */
        std::vector<std::uint16_t> refs;
        int quiesce = 0;
        bool remote = false;
    };

    struct NsRecord
    {
        pcie::FunctionId fn;
        std::uint32_t nsid;
        std::vector<Allocation> allocs;
        int locks = 0;
        bool thin = false;
        Policy policy = Policy::RoundRobin;
        int pinSlot = -1;
    };

    struct SnapRecord
    {
        std::uint32_t id;
        pcie::FunctionId srcFn;
        std::uint32_t srcNsid;
        std::uint64_t sizeBlocks;
        std::vector<Allocation> allocs;
        Policy policy = Policy::RoundRobin;
        int pinSlot = -1;
    };

    std::optional<std::vector<Allocation>>
    allocate(std::uint32_t chunks, Policy policy, int pin_slot);
    void release(const std::vector<Allocation> &allocs);
    Pool *poolFor(int slot);
    const Pool *poolFor(int slot) const;
    NsRecord *recordFor(pcie::FunctionId fn, std::uint32_t nsid);
    const NsRecord *recordFor(pcie::FunctionId fn,
                              std::uint32_t nsid) const;
    /** Take one more reference to an already-owned chunk. */
    void retainChunk(int slot, std::uint8_t chunk);
    /** Clear the shared bit of the last owner once refs drop to 1. */
    void maybeClearShared(int slot, std::uint8_t chunk);

    BmsEngine &_engine;
    LbaMapGeometry _geom;
    std::vector<Pool> _pools;
    int _rr = 0;

    std::vector<NsRecord> _records;
    std::vector<SnapRecord> _snaps;
    std::uint32_t _nextSnapId = 1;
    std::vector<std::uint32_t> _nextNsid =
        std::vector<std::uint32_t>(pcie::kMaxFunctions, 1);
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_NAMESPACE_MANAGER_HH
