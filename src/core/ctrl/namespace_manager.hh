/**
 * @file
 * Namespace manager — the BMS-Controller service that carves back-end
 * SSD capacity into 64 GiB chunks and binds namespaces to front-end
 * PF/VFs (paper §IV-C "the back-end storage resources can be
 * dynamically divided into multiple namespaces for the front-end
 * virtual function").
 *
 * Every back-end slot has one chunk table: a row per physical chunk
 * with its state and holder count (the namespace and snapshot records
 * naming it). Allocation, release and every placement change rewrite
 * rows at one transition. The same tables back the per-SSD occupancy
 * report surfaced through the `df` console verb and `ioStats`.
 */

#ifndef BMS_CORE_CTRL_NAMESPACE_MANAGER_HH
#define BMS_CORE_CTRL_NAMESPACE_MANAGER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine/bms_engine.hh"
#include "core/mgmt/nvme_mi.hh"

namespace bms::core {

/** The four placement changes a migration job makes (its kind). */
enum class MoveKind : std::uint8_t
{
    Move,    ///< generic move; the source drains, then frees
    Cow,     ///< chunk copy-on-write off a snapshot-shared entry
    Spill,   ///< to a remote slot; the source stays as the shadow
    Promote, ///< a spilled chunk back onto its shadow
};

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
     * Destroy a namespace and free its chunks; a spilled chunk's
     * shadow and tier mirror go with it. Refused (returns false)
     * while a migration holds the namespace locked.
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
     * the mapping entry and drops this namespace's hold — the chunk
     * returns to the free pool unless a snapshot still pins it.
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
     * allocated chunk gains a holder and its mapping entry is
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

    /** Records (namespaces and snapshots) holding (@p slot,
     *  @p chunk); 0 for a free, reserved or shadow chunk. */
    std::uint16_t chunkRefs(int slot, std::uint8_t chunk) const;

    /**
     * Exact census (BMS_ASSERT on violation), valid at every instant:
     * each row's holders are the records naming it; a shadow and its
     * primary link each other, with one armed tier mirror per link;
     * only the running job, which keeps its namespace locked, has a
     * chunk reserved or draining (one of each); and a valid entry is
     * shared iff its chunk has another sharer (a draining chunk's
     * pre-flip I/O counts as one). Runs after snapshot lifecycle
     * mutations under Check::paranoid(); the fuzzers run it at the
     * end of every seed.
     */
    void checkRefInvariants() const;
    /// @}

    /** @name Tier links. */
    /// @{
    /** The shadow of @p primary when it is a spilled chunk. */
    std::optional<Allocation> shadowOf(Allocation primary) const;

    /** Every spilled chunk, in spill order. */
    std::vector<SpilledChunk> spilled() const;
    /// @}

    /** @name Migration support. */
    /// @{
    /** Reserve one free chunk on @p slot (refused while quiesced). */
    std::optional<std::uint8_t> takeChunk(int slot);

    /**
     * Drop one hold on a chunk: a reserved destination returns to the
     * pool, a draining source ends its drain, and an owned chunk
     * loses one holder (freeing at none).
     */
    void releaseChunk(int slot, std::uint8_t chunk);

    /**
     * The one placement transition. In one instant it flips chunk
     * @p chunk_index of (@p fn, @p nsid) from @p src to @p dst in the
     * mapping table, moves the record, rewrites both rows and arms or
     * clears the gate's tier mirror:
     *   Move, Cow  src drains (releaseChunk once idle), the reserved
     *              dst becomes owned;
     *   Spill      src becomes dst's shadow and the mirror is armed;
     *   Promote    dst must be src's shadow; the link and mirror go
     *              and src drains (node-loss recovery releases it at
     *              once: nothing can land on a dead node).
     * @p src is where the running job found the chunk, never where a
     * request saw it.
     */
    void flip(MoveKind kind, pcie::FunctionId fn, std::uint32_t nsid,
              std::uint32_t chunk_index, Allocation src, Allocation dst);

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
    /** What one chunk row is doing. */
    enum class ChunkState : std::uint8_t
    {
        Free,        ///< in the pool
        Owned,       ///< named by namespace and/or snapshot records
        MigratingIn, ///< reserved as the running job's destination
        Draining,    ///< the map flipped off it; pre-flip I/O may run
        Shadow,      ///< a spilled chunk's local recovery copy
    };

    /** One physical chunk. */
    struct ChunkRow
    {
        ChunkState state = ChunkState::Free;
        std::uint16_t holders = 0; ///< records naming the chunk
        /** A spilled primary and its shadow name each other here. */
        Allocation link{kUnallocSlot, 0};
        std::uint32_t spillSeq = 0; ///< primary only: orders spilled()
    };

    /** One back-end slot's chunk table. */
    struct Pool
    {
        int slot = 0;
        std::vector<ChunkRow> rows;
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
    ChunkRow &rowAt(int slot, std::uint8_t chunk);
    const ChunkRow *findRow(int slot, std::uint8_t chunk) const;
    /** Take a free chunk of @p pool into @p state, if any. */
    std::optional<std::uint8_t> claimFree(Pool &pool, ChunkState state);
    /** One more record names a chunk records already hold. */
    void retainChunk(int slot, std::uint8_t chunk);
    /** One record stops naming the chunk; the last one frees it (and
     *  a spilled primary's shadow and mirror). */
    void dropHolder(int slot, std::uint8_t chunk);
    /** Clear the shared bit of the last holder once only it remains. */
    void maybeClearShared(int slot, std::uint8_t chunk);

    BmsEngine &_engine;
    LbaMapGeometry _geom;
    std::vector<Pool> _pools;
    int _rr = 0;

    std::vector<NsRecord> _records;
    std::vector<SnapRecord> _snaps;
    std::uint32_t _nextSnapId = 1;
    std::uint32_t _spillSeq = 0;
    std::vector<std::uint32_t> _nextNsid =
        std::vector<std::uint32_t>(pcie::kMaxFunctions, 1);
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_NAMESPACE_MANAGER_HH
