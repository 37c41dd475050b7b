/**
 * @file
 * Data-integrity oracle for the simulation fuzzer.
 *
 * Wraps one tenant block device with a write-stamp shadow map: every
 * write fills each block with a self-describing 32-byte group (a
 * per-oracle salt, the absolute block index, a monotonically
 * increasing stamp, and a mix of the three) repeated over the block,
 * and every read is verified against the set of stamps the shadow map
 * says that block may legally hold.
 *
 * A written block is a unit page (sim/page_store.hh): the group is
 * stored once, and a read that gets the page back verifies that group.
 * A block some byte write landed in is a frame: it passes only when
 * every one of its 128 groups equals the first, and then that group
 * gets the same check. Either way the whole image is checked.
 *
 * Soundness notes (what "may legally hold" means):
 *
 *  - Every stamp gets a life: it starts at the write's submit (its
 *    data may commit to media any time after that) and the stamp dies
 *    at the completion of the next *successful* write to the block
 *    (the latest the overwrite can commit).  Stamp 0 (the all-zero
 *    pre-image) is alive from the start.
 *  - A read whose flight is [submit, complete] may legally return any
 *    stamp whose life overlaps it, i.e. died >= submit.  This covers
 *    reads that are overtaken by one or more whole write lifecycles
 *    while stalled (QoS buffering, latency spikes, hot upgrade): the
 *    intermediate stamp was really on media when the read's DMA ran,
 *    even though it was overwritten before the read completed.
 *  - A *failed* write's stamp stays alive alongside the old ones: the
 *    engine splits chunk-straddling commands into per-SSD extents, so
 *    a front-end error completion may still have committed some
 *    extents (partial-write semantics, exactly as on real hardware
 *    without atomic multi-extent writes).  The next successful write
 *    kills it like any other stamp.
 *  - Read-your-writes still holds: once a successful write completes,
 *    every older stamp is dead, so a read submitted afterwards
 *    accepts only the new stamp.
 *  - A TRIM (Dataset-Management deallocate) is modelled as a
 *    concurrent write of zeroes: a zero-stamp life starts at submit,
 *    and a *successful* trim kills every older stamp at completion
 *    (deallocated blocks must read back zero).  A FAILED trim keeps
 *    the old stamps alive next to the zero life — the engine
 *    deallocates chunk-by-chunk, so an error completion may still
 *    have freed or scrubbed a prefix (lenient, like partial writes).
 *  - Snapshot/clone lineage: every life carries the uid of the
 *    oracle that wrote it.  captureLineage(pin) returns, per block,
 *    every life whose residency overlaps the pin (died >= pin,
 *    in-flight writes included) — the snapshot freezes whichever of
 *    those stamps was on media, and the parent's later overwrites
 *    divert through chunk CoW without touching the pinned chunk.  A
 *    clone oracle adopts that lineage: its reads accept any pin-time
 *    (uid, stamp) pair until the clone's own first successful write
 *    to the block kills the inherited entries (divergence), after
 *    which read-your-writes applies to the clone's stamps alone.
 *  - Failed reads and failed writes are only excused while fault
 *    injection is active (setFaultsActive); otherwise they are
 *    integrity violations themselves.
 *
 * What is kept: a dead life matters only to an *observer* that may
 * still accept it — an in-flight read submitted at or before its
 * death, or a held snapshot pin (holdPin) at or before it.  Every
 * block keeps its settled stamp inline in 16 bytes; the rare others
 * (an in-flight op's stamp, a failed op's, an inherited lineage
 * entry, a dead stamp an observer still needs) sit in one node store
 * per oracle, and a dead one is dropped once the clock has passed
 * its death and no observer is at or before it.  A block nobody is
 * touching holds exactly one life.
 *
 * Any violation dumps the shared OpLog and panics with the seed,
 * simulated tick, and block detail needed to reproduce.
 */

#ifndef BMS_FUZZ_ORACLE_HH
#define BMS_FUZZ_ORACLE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "fuzz/op_log.hh"
#include "host/block.hh"
#include "host/host_memory.hh"
#include "sim/simulator.hh"

namespace bms::fuzz {

/** Shadow-mapped view of one tenant namespace. */
class OracleDevice : public sim::SimObject
{
  public:
    struct Config
    {
        /** Pattern salt — distinct per oracle so cross-namespace
         *  write leakage shows up as a wrong-salt mismatch. */
        std::uint32_t uid = 0;
        /** Byte offset of the verified window inside the device.
         *  Placing it across a 64 GiB chunk boundary exercises the
         *  engine's extent-splitting path. */
        std::uint64_t baseOffset = 0;
        /** Size of the verified window (bounds the shadow map). */
        std::uint64_t regionBytes = 4 * 1024 * 1024;
        /** Largest single I/O the oracle will issue. */
        std::uint32_t maxIoBytes = 128 * 1024;
        /** Seed echoed into failure reports. */
        std::uint64_t seed = 0;
    };

    /** A block image the oracle recognises: the uid of the oracle
     *  that wrote it and its stamp ({0, 0} = all zeroes). */
    struct Stamp
    {
        std::uint32_t uid = 0;
        std::uint64_t stamp = 0;
        bool operator==(const Stamp &) const = default;
    };

    /** Per block, the images a snapshot pin may hold (see
     *  captureLineage). */
    using Lineage = std::vector<std::vector<Stamp>>;

    OracleDevice(sim::Simulator &sim, std::string name,
                 host::BlockDeviceIf &dev, host::HostMemory &mem,
                 OpLog &log, Config cfg);

    /** Window size in 4 KiB blocks. */
    std::uint64_t blocks() const { return _state.size(); }
    std::uint32_t maxIoBlocks() const;

    /** Stamped write of @p nblocks starting at window block @p block.
     *  Blocks with a write already in flight must be avoided (see
     *  writeInflight); overlapping writes would make "expected data"
     *  ill-defined. */
    void write(std::uint64_t block, std::uint32_t nblocks,
               std::function<void(bool ok)> done = nullptr);

    /** Verified read of @p nblocks starting at window block @p block. */
    void read(std::uint64_t block, std::uint32_t nblocks,
              std::function<void(bool ok)> done = nullptr);

    /**
     * Deallocate (TRIM) @p nblocks starting at window block @p block:
     * a Dataset-Management Discard whose success makes the range read
     * back zero.  Modelled as a concurrent zero write, so it must not
     * overlap in-flight writes or trims (see writeInflight).
     */
    void trim(std::uint64_t block, std::uint32_t nblocks,
              std::function<void(bool ok)> done = nullptr);

    /** Tally of a read-back sweep (see sweep()). */
    struct SweepTally
    {
        int pending = 0;          ///< reads still in flight
        std::uint64_t reads = 0;  ///< reads issued
        std::uint64_t failed = 0; ///< reads that completed with an error
    };

    /**
     * Read the whole window back once: verified reads of
     * maxIoBlocks() blocks each, from block 0 up, all issued now.
     * Each read counts into @p tally, which must outlive them; the
     * sweep is done when `tally.pending` reaches zero.
     */
    void sweep(SweepTally &tally);

    /** Flush (never expected to fail, faults or not). */
    void flush(std::function<void(bool ok)> done = nullptr);

    /** True when any covered block has a write or trim in flight. */
    bool writeInflight(std::uint64_t block, std::uint32_t nblocks) const;

    /**
     * Hold a snapshot pin at now(): until releasePin(), every life that
     * dies from this tick on is kept, so captureLineage() of the
     * returned tick still lists it.  Take it before the snapshot verb
     * is sent; the verb's wire time lets the parent overwrite a block
     * more than once before the pin lands.
     */
    sim::Tick holdPin();
    void releasePin(sim::Tick pin);

    /**
     * Snapshot-pin lineage: for every block, the images whose media
     * residency may overlap a pin taken at @p pin (died >= pin,
     * in-flight writes included) — on the pinned chunk nothing dies
     * until the adopting clone overwrites it.  Call it from the
     * snapshot verb's *completion* with the tick holdPin() returned at
     * its *submit*: images written while the verb was on the wire land
     * on the still-unshared chunk and must be captured; filtering from
     * the earlier tick only ever widens the acceptable set (lenient,
     * sound).  @p pin must be held or be now().
     */
    Lineage captureLineage(sim::Tick pin) const;

    /**
     * Seed a freshly built clone oracle with its parent's captured
     * lineage (same window geometry; must precede any I/O).  The
     * clone's own writes then kill inherited entries block-by-block —
     * exactly the divergence semantics of chunk-CoW clones.
     */
    void adoptLineage(const Lineage &lineage);

    /** Fault-injection window marker: failed I/Os are excused only
     *  while (or right after) this is on. */
    void setFaultsActive(bool on) { _faultsActive = on; }

    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }
    std::uint64_t flushes() const { return _flushes; }
    std::uint64_t trims() const { return _trims; }
    /** Blocks whose contents passed full-pattern verification. */
    std::uint64_t verifiedBlocks() const { return _verifiedBlocks; }
    /** I/Os that failed while excused by fault injection. */
    std::uint64_t excusedErrors() const { return _excusedErrors; }
    /** Lives the shadow map holds: every block's settled one plus
     *  every node in use (see the class notes). */
    std::uint64_t
    retainedLives() const
    {
        return blocks() + _lives.size() - _free.size();
    }

  private:
    static constexpr sim::Tick kNever = ~sim::Tick{0};
    /** Death tick of an in-flight op's own life: alive, and settled
     *  when that op completes. */
    static constexpr sim::Tick kPending = kNever - 1;
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** A block's whole record: the settled image (the one it holds
     *  once every op on it has completed) and the first of its other
     *  lives in _lives.  An in-flight op's life is always the first. */
    struct BlockState
    {
        std::uint64_t stamp = 0;
        std::uint32_t uid = 0;
        std::uint32_t more = kNone;
    };
    static_assert(sizeof(BlockState) == 16);

    /** One of a block's other lives: a node of _lives. */
    struct Life
    {
        std::uint64_t stamp = 0;
        /** Completion tick of the overwrite that killed it (kNever
         *  while alive, kPending while its own op is in flight). */
        sim::Tick died = kNever;
        std::uint32_t uid = 0;
        std::uint32_t next = kNone; ///< the block's next life
    };

    /** A dead life queued for its drop; _deaths is in death order. */
    struct Death
    {
        std::uint32_t block = 0;
        std::uint32_t life = 0;
    };

    std::uint64_t acquireBuffer();
    void releaseBuffer(std::uint64_t addr);
    /** The group the block at host address @p addr repeats; panics
     *  when the block is a frame whose groups differ. */
    sim::PageStore::Unit blockUnit(std::uint64_t addr, std::uint64_t block);
    /** Verify one block's group: it must decode to an image of a life
     *  of the block with died >= @p since, or this panics. */
    void verifyBlock(const sim::PageStore::Unit &unit, std::uint64_t block,
                     sim::Tick since);
    /** Calls @p f(Stamp) for every life of block @p b with
     *  died >= @p since, the settled one first. */
    template <typename F>
    void forLives(std::uint64_t b, sim::Tick since, F f) const;
    bool pending(std::uint64_t b) const;
    /** Link a life to the front of block @p b's list. */
    void pushLife(std::uint64_t b, Stamp s, sim::Tick died);
    /** Start an op's life on every covered block: alive from now, and
     *  settled by settleOverwrite(). */
    void startOp(std::uint64_t block, std::uint32_t nblocks, Stamp s);
    /** Shared completion bookkeeping of write() and trim(): on
     *  success the op's image becomes the settled one and every other
     *  live image dies now; a failed op's image stays alive. */
    void settleOverwrite(std::uint64_t block, std::uint32_t nblocks,
                         bool ok);
    /** Drop an observer (a completed read or a released pin). */
    void unobserve(sim::Tick tick);
    /** Drop every dead life no observer can accept any more. */
    void prune();
    [[noreturn]] void fail(const std::string &what);

    host::BlockDeviceIf &_dev;
    host::HostMemory &_mem;
    OpLog &_log;
    Config _cfg;

    std::vector<BlockState> _state;
    /** The blocks' other lives, and the free nodes among them. */
    std::vector<Life> _lives;
    std::vector<std::uint32_t> _free;
    std::deque<Death> _deaths;
    /** Observer ticks: in-flight reads' submits and held pins. */
    std::vector<sim::Tick> _observers;
    std::vector<std::uint64_t> _bufPool;
    std::uint64_t _nextStamp = 0;
    bool _faultsActive = false;

    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _flushes = 0;
    std::uint64_t _trims = 0;
    std::uint64_t _verifiedBlocks = 0;
    std::uint64_t _excusedErrors = 0;
};

} // namespace bms::fuzz

#endif // BMS_FUZZ_ORACLE_HH
