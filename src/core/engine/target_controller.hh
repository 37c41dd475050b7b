/**
 * @file
 * Target Controller — paper Fig. 3 module 2, executing steps ②-③ of
 * the Fig. 6 command path:
 *
 *  - look up the (function, namespace) binding;
 *  - translate host LBA → (SSD id, physical LBA) via the namespace's
 *    LBA Mapping Table, splitting commands that straddle chunk
 *    boundaries;
 *  - pass the command through the QoS module;
 *  - rewrite PRPs into global PRPs (fetching and rewriting the host
 *    PRP list into chip memory when present);
 *  - forward the rewritten SQE(s) to the right host adaptor and post
 *    the front-end completion when all parts finish.
 *
 * Thin provisioning extends the translate step: a read covering an
 * invalid (never-written) mapping entry zero-fills the host buffer
 * without touching media, while a write to one triggers allocate-on-
 * write — the controller reserves a pool chunk through the installed
 * AllocateHook, scrubs it with WriteZeroes, programs the entry, and
 * only then releases the write. Writes through a *shared* entry (one
 * pinned by a snapshot or clone) are held behind a chunk CoW driven
 * by the CowHook, and Dataset-Management deallocate returns whole
 * chunks to the pool (TrimHook) or scrubs sub-chunk ranges in place.
 * While any such chunk operation runs, commands touching the chunk
 * queue on the op and re-enter forward() when it resolves.
 */

#ifndef BMS_CORE_ENGINE_TARGET_CONTROLLER_HH
#define BMS_CORE_ENGINE_TARGET_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/engine/engine_config.hh"
#include "core/engine/migration_gate.hh"
#include "nvme/controller.hh"
#include "nvme/defs.hh"
#include "pcie/device.hh"
#include "sim/simulator.hh"

namespace bms::core {

class BmsEngine;
class FrontFunction;
struct NsBinding;

/** Command-forwarding logic of the BMS-Engine. */
class TargetController : public sim::SimObject
{
  public:
    TargetController(sim::Simulator &sim, std::string name,
                     BmsEngine &engine);

    /** Entry point for I/O command @p front fetched by @p fn. */
    void handleIo(FrontFunction &fn, nvme::ControllerModel::Handle front);

    /** @name Thin-provisioning hooks (the BMS-Controller installs all
     *  four when it is built, so the data path calls them unchecked). */
    /// @{
    /** Placement of a freshly reserved pool chunk. */
    struct ThinPlacement
    {
        std::uint8_t slot = 0;
        std::uint8_t chunk = 0;
    };

    /**
     * Reserve physical backing for logical chunk `chunk_index` of
     * (fn, nsid). The chunk's row goes free → owned but the entry is
     * NOT programmed — the controller scrubs the chunk first and
     * programs the entry itself. nullopt = pools exhausted (the write
     * fails with CapacityExceeded).
     */
    using AllocateHook = std::function<std::optional<ThinPlacement>(
        pcie::FunctionId, std::uint32_t, std::uint32_t)>;

    /**
     * Deallocate logical chunk `chunk_index`: invalidate the mapping
     * entry and drop the namespace's pool reference. Called with the
     * chunk idle (no in-flight I/O). Doubles as the rollback for a
     * failed allocation scrub (the entry was never programmed).
     */
    using TrimHook = std::function<bool(pcie::FunctionId, std::uint32_t,
                                        std::uint32_t)>;

    /**
     * Copy the shared chunk `chunk_index` onto private backing and
     * flip the mapping entry (chunk CoW through the migration path);
     * `done(ok)` fires after the flip. While it runs the controller
     * holds every write to the chunk, so the source stays bit-stable
     * for the snapshot that pins it.
     */
    using CowHook = std::function<void(pcie::FunctionId, std::uint32_t,
                                       std::uint32_t,
                                       std::function<void(bool)>)>;

    /**
     * Pin (acquire=true) / unpin (fn, nsid) for the duration of a
     * chunk operation — the BMS-Controller maps this onto the
     * namespace lock so destroy/snapshot are refused mid-scrub,
     * mid-CoW and mid-trim, and no generic migration starts under a
     * chunk op.
     */
    using NsRefHook = std::function<void(pcie::FunctionId, std::uint32_t,
                                         bool)>;

    void
    setThinHooks(AllocateHook alloc, TrimHook trim, CowHook cow,
                 NsRefHook ns_ref)
    {
        _allocHook = std::move(alloc);
        _trimHook = std::move(trim);
        _cowHook = std::move(cow);
        _nsRefHook = std::move(ns_ref);
    }
    /// @}

    /** @name Counters (I/O monitor registers). */
    /// @{
    std::uint64_t forwardedCommands() const { return _forwarded; }
    std::uint64_t splitCommands() const { return _split; }
    std::uint64_t rewrittenPrpLists() const { return _listsRewritten; }
    std::uint64_t errorCompletions() const { return _errors; }
    /** Reads (partially) served as zeroes from unallocated chunks. */
    std::uint64_t zeroFillReads() const { return _zeroFill; }
    /** Dataset-Management commands processed. */
    std::uint64_t dsmCommands() const { return _dsmCommands; }
    /** Whole chunks returned to the pool by deallocate. */
    std::uint64_t trimmedChunks() const { return _trimmedChunks; }
    /** Thin chunks allocated (and scrubbed) on first write. */
    std::uint64_t allocatedOnWrite() const { return _allocOnWrite; }
    /** Chunk CoW operations triggered by writes/trims. */
    std::uint64_t cowTriggers() const { return _cowTriggers; }
    /** Chunk operations currently in flight (tests). */
    std::size_t pendingChunkOps() const { return _chunkOps.size(); }
    /// @}

    /** @name Per-chunk access heat (I/O monitor / tiering). */
    /// @{
    /** Key: (QoS key << 32) | logical chunk index within the ns. */
    static std::uint64_t
    heatKey(std::uint32_t qos_key, std::uint32_t chunk)
    {
        return (static_cast<std::uint64_t>(qos_key) << 32) | chunk;
    }

    /**
     * Bytes accessed per (fn, nsid, logical chunk) since the last
     * drain; counted at translate time so remote and local chunks
     * score identically. Clears the accumulator.
     */
    std::unordered_map<std::uint64_t, std::uint64_t> drainHeat();
    /// @}

  private:
    /** Names one in-flight front-end command: its index in _cmds. */
    using Handle = std::uint32_t;

    /** Why a chunk is temporarily fenced inside the controller. */
    enum class OpKind : std::uint8_t
    {
        Alloc, ///< first-write allocation scrub (reads zero-fill past it)
        Cow,   ///< chunk copy-on-write (reads still hit the source)
        Trim,  ///< deallocate in progress (reads AND writes held)
    };

    /** One in-flight chunk operation plus the commands queued on it. */
    struct ChunkOp
    {
        OpKind kind = OpKind::Alloc;
        pcie::FunctionId fn = 0;
        std::uint32_t nsid = 0;
        /** Queued commands; resumed in arrival order with the op's
         *  final status (Success = retry, else fail). */
        std::vector<Handle> waiters;
    };

    /** Zero-filled byte ranges of a read (unallocated chunks). */
    struct ZeroRange
    {
        std::uint64_t byteOffset = 0;
        std::uint64_t bytes = 0;
    };

    /** Per-chunk deallocate work parsed out of one DSM command. */
    struct DsmChunk
    {
        std::uint32_t chunk = 0;
        bool full = false; ///< some range covers the whole chunk
        /** Sub-chunk pieces to scrub (chunk-relative), when !full. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
    };

    /**
     * One in-flight front-end command (read, write, flush, DSM): the
     * command context that walks steps ②-⑦ of Fig. 6. A record never
     * moves (the host PRP list is DMAed into `pages`) and keeps its
     * vectors' capacity for the next command once freed.
     */
    struct Cmd
    {
        /** The front function and its record of the command (the SQE). */
        FrontFunction *fn = nullptr;
        nvme::ControllerModel::Handle front = 0;
        std::uint64_t chunkBlocks = 0; ///< the namespace's, at translate
        std::vector<PhysExtent> extents;
        std::vector<PhysExtent> mirrors;
        std::vector<ZeroRange> zeros;
        /** PRP1, then the host PRP list (or a DSM's range list). */
        std::vector<std::uint64_t> pages;
        /** Per leg (extents, then mirrors): its PRP-list slot or 0. */
        std::vector<std::uint64_t> listSlots;
        /** Completion barrier. */
        std::size_t legsLeft = 0;
        nvme::Status worst = nvme::Status::Success;
        bool mirrorOk = true;
        /** The chunk op it drives: an allocation's logical chunk, the
         *  physical chunk being scrubbed, and the scrub's cursor. */
        std::uint32_t opChunk = 0;
        std::uint8_t opSlot = 0;
        std::uint32_t opBase = 0;
        std::uint64_t scrubLba = 0;
        std::uint64_t scrubBlocks = 0;
        sim::Tick scrubDeadline = 0;
        /** DSM: touched chunks walked from `next`, scrubbing `piece`. */
        std::vector<DsmChunk> chunks;
        std::size_t next = 0;
        std::size_t piece = 0;
    };

    static const nvme::Sqe &sqeOf(const Cmd &c);
    /** The command's namespace, looked up again (null once destroyed):
     *  every step after an asynchronous gap starts here. */
    NsBinding *bindingOf(const Cmd &c);

    /** Post the front-end completion now and free the record. */
    void post(Handle h, nvme::Status st);
    /** Fail the command now, counted as an error. */
    void fail(Handle h, nvme::Status st);
    /** Count @p st and post it after the completion pipeline (step ⑦). */
    void completeAfterPipeline(Handle h, nvme::Status st);

    void forward(Handle h);
    /** Step ②½: through the migration gate, then fetch the host PRP
     *  list if the transfer has one. */
    void admit(Handle h);
    void dispatch(Handle h);
    /** Step ③: rewrite leg @p leg's PRPs and submit it. */
    void submitLeg(Handle h, std::uint32_t leg);
    void legDone(Handle h, std::uint32_t leg, const nvme::Cqe &cqe);
    /** The completion barrier: one leg of the command finished. */
    void legFinished(Handle h);
    void forwardFlush(Handle h, NsBinding &binding);

    /** A page-aligned chip-memory page for one leg's PRP list. */
    std::uint64_t takeListSlot();

    /**
     * Classification pass over the chunks a command touches: queue it
     * on an in-flight chunk op, trigger allocate-on-write or CoW, or
     * let it through. @return true when the command was consumed
     * (held or failed) and must not proceed to translation.
     */
    bool classifyChunks(Handle h, NsBinding &binding);

    ChunkOp &openChunkOp(std::uint64_t key, OpKind kind,
                         pcie::FunctionId fn_id, std::uint32_t nsid);
    void finishChunkOp(std::uint64_t key, nvme::Status st);
    /** A chunk op the command waited on finished: retry it on
     *  success, fail it (or its DSM chunk) otherwise. */
    void resume(Handle h, nvme::Status st);

    void startAlloc(Handle h, NsBinding &binding, std::uint32_t chunk_index);
    void allocScrubbed(Handle h, bool ok);
    void startCow(std::uint64_t key, pcie::FunctionId fn_id,
                  std::uint32_t nsid, std::uint32_t chunk_index);

    /** Zero @p blocks from @p phys_lba on the command's `opSlot` with
     *  chained WriteZeroes (<= 65536 blocks each), then scrubbed(). A
     *  not-ready adaptor (a hot-plug swap: the disk is out until the
     *  new one is brought up) is waited out for kScrubReadyWait, so
     *  allocation scrubs and sub-chunk trims stay transparent across
     *  a replacement, like held writes. */
    void scrub(Handle h, std::uint64_t phys_lba, std::uint64_t blocks);
    void scrubNext(Handle h);
    /** Its allocation (a write) or DSM piece (a DSM) is scrubbed. */
    void scrubbed(Handle h, bool ok);

    void handleDsm(Handle h);
    void parseDsm(Handle h);
    void dsmChunkDone(Handle h, nvme::Status st);
    /** Trim the DSM's current chunk; past the last, complete it. */
    void trimChunk(Handle h);
    void attemptTrim(Handle h);
    void trimIdle(Handle h);
    void zeroPieces(Handle h);
    /** Finish the trim op with @p op_st and the DSM chunk with @p st. */
    void trimDone(Handle h, nvme::Status op_st, nvme::Status st);

    BmsEngine &_engine;
    std::unordered_map<std::uint64_t, std::uint64_t> _heatBytes;
    /** In-flight chunk ops keyed by heatKey(binding key, chunk). */
    std::unordered_map<std::uint64_t, ChunkOp> _chunkOps;
    AllocateHook _allocHook;
    TrimHook _trimHook;
    CowHook _cowHook;
    NsRefHook _nsRefHook;
    sim::RecordPool<Cmd> _cmds{sim()};
    /** PRP-list slots no leg holds, reused last-in first-out. */
    std::vector<std::uint64_t> _freeListSlots;
    /** Scratch for one leg's rewritten PRP list. */
    std::vector<std::uint64_t> _list;
    std::uint64_t _forwarded = 0;
    std::uint64_t _split = 0;
    std::uint64_t _listsRewritten = 0;
    std::uint64_t _errors = 0;
    std::uint64_t _zeroFill = 0;
    std::uint64_t _dsmCommands = 0;
    std::uint64_t _trimmedChunks = 0;
    std::uint64_t _allocOnWrite = 0;
    std::uint64_t _cowTriggers = 0;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_TARGET_CONTROLLER_HH
