/**
 * @file
 * Data-integrity oracle for the simulation fuzzer.
 *
 * Wraps one tenant block device with a write-stamp shadow map: every
 * write fills its buffer with a self-describing pattern (a per-oracle
 * salt, the absolute block index, and a monotonically increasing
 * stamp), and every read is verified word-for-word against the set of
 * stamps the shadow map says that block may legally hold.
 *
 * Soundness notes (what "may legally hold" means):
 *
 *  - Every stamp gets a lifetime window [born, died]: born at the
 *    write's submit (its data may commit to media any time after
 *    that), died at the completion of the next *successful* write to
 *    the block (the latest the overwrite can commit).  Stamp 0 (the
 *    all-zero pre-image) is born at tick 0.
 *  - A read whose flight is [submit, complete] may legally return any
 *    stamp whose lifetime overlaps it, i.e. died >= submit.  This
 *    covers reads that are overtaken by one or more whole write
 *    lifecycles while stalled (QoS buffering, latency spikes, hot
 *    upgrade): the intermediate stamp was really on media when the
 *    read's DMA ran, even though it was overwritten before the read
 *    completed.
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
 *    concurrent write of zeroes: a zero-stamp life is born at submit,
 *    and a *successful* trim kills every older stamp at completion
 *    (deallocated blocks must read back zero).  A FAILED trim keeps
 *    the old stamps alive next to the zero life — the engine
 *    deallocates chunk-by-chunk, so an error completion may still
 *    have freed or scrubbed a prefix (lenient, like partial writes).
 *  - Snapshot/clone lineage: every life carries the uid of the
 *    oracle that wrote it.  captureLineage(pin_submit) returns, per
 *    block, every life whose residency window overlaps the pin
 *    (died >= pin_submit, including in-flight writes still at
 *    kNever) with the death side reset to kNever — the snapshot
 *    freezes whichever of those stamps was on media, and the
 *    parent's later overwrites divert through chunk CoW without
 *    touching the pinned chunk.  A clone oracle adopts that lineage:
 *    its reads accept any pin-time (uid, stamp) pair until the
 *    clone's own first successful write to the block kills the
 *    inherited entries (divergence), after which read-your-writes
 *    applies to the clone's stamps alone.
 *  - Failed reads and failed writes are only excused while fault
 *    injection is active (setFaultsActive); otherwise they are
 *    integrity violations themselves.
 *
 * Any violation dumps the shared OpLog and panics with the seed,
 * simulated tick, and block detail needed to reproduce.
 */

#ifndef BMS_FUZZ_ORACLE_HH
#define BMS_FUZZ_ORACLE_HH

#include <cstdint>
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

    static constexpr sim::Tick kNever = ~sim::Tick{0};

    /** One stamp's media-residency window on one block. */
    struct StampLife
    {
        /** Unique token of the originating op (overwrite kill rule). */
        std::uint64_t id = 0;
        /** Decoded pattern stamp (0 = all-zero image). */
        std::uint64_t stamp = 0;
        /** Oracle uid that wrote the pattern (0 for zero images);
         *  clone lineages carry the parent's uid. */
        std::uint32_t uid = 0;
        /** Write submit tick: earliest the data can be on media. */
        sim::Tick born = 0;
        /** Completion tick of the next successful write (kNever while
         *  the stamp is still current). */
        sim::Tick died = kNever;
    };

    /** Per-block acceptable lives at a snapshot pin (see
     *  captureLineage). */
    using Lineage = std::vector<std::vector<StampLife>>;

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
     * Snapshot-pin lineage: for every block, the lives whose media
     * residency may overlap a pin submitted at @p pin_submit
     * (died >= pin_submit, in-flight entries included), with `died`
     * reset to kNever — on the pinned chunk nothing dies until the
     * adopting clone overwrites it.  Call it from the snapshot verb's
     * *completion* using the verb's *submit* tick: entries born while
     * the verb was on the wire land on the still-unshared chunk and
     * must be captured; filtering from the earlier tick only ever
     * widens the acceptable set (lenient, sound).
     */
    Lineage captureLineage(sim::Tick pin_submit) const;

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

  private:
    struct BlockState
    {
        /** Stamps with a still-relevant lifetime; dead entries are
         *  pruned once no in-flight read can observe them. */
        std::vector<StampLife> lives{StampLife{}};
        /** Op token of the one in-flight write/trim covering the
         *  block (0 = none). */
        std::uint64_t inflight = 0;
    };

    std::uint64_t acquireBuffer();
    void releaseBuffer(std::uint64_t addr);
    void fillPattern(std::uint8_t *buf, std::uint64_t block,
                     std::uint64_t stamp) const;
    /** Verify one block image; returns the decoded stamp or panics.
     *  @p valid holds the already-filtered acceptable lives — the
     *  image must decode to one of their (uid, stamp) pairs. */
    std::uint64_t verifyBlock(const std::uint8_t *img, std::uint64_t block,
                              const std::vector<StampLife> &valid);
    /** Shared completion bookkeeping of write() and trim(): clear
     *  the inflight token, kill overwritten lives on success, prune
     *  lives no in-flight read can observe. */
    void settleOverwrite(std::uint64_t block, std::uint32_t nblocks,
                         std::uint64_t token, bool ok);
    [[noreturn]] void fail(const std::string &what);

    host::BlockDeviceIf &_dev;
    host::HostMemory &_mem;
    OpLog &_log;
    Config _cfg;

    std::vector<BlockState> _state;
    /** Submit ticks of in-flight reads — bounds lifetime pruning. */
    std::vector<sim::Tick> _readSubmits;
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
