#include "fuzz/oracle.hh"

#include <algorithm>
#include <array>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "nvme/defs.hh"
#include "sim/check.hh"

namespace bms::fuzz {

namespace {

using sim::PageStore;

/** Pattern salt base; xor'd with the oracle uid per word group. */
constexpr std::uint64_t kMagic = 0xb35ee0f5'0c1e0000ULL;
constexpr std::uint32_t kWordsPerBlock = nvme::kBlockSize / 8;
static_assert(nvme::kBlockSize == sim::SparseMemory::kPageBytes,
              "the oracle fills and verifies one page per block");

std::uint64_t
mixWord(std::uint32_t uid, std::uint64_t block, std::uint64_t stamp)
{
    std::uint64_t v = (static_cast<std::uint64_t>(uid) << 48) ^ block ^
                      (stamp * 0x9e3779b97f4a7c15ULL);
    v ^= v >> 29;
    return v;
}

/** The group every 32 bytes of a written block hold. */
PageStore::Unit
pattern(std::uint32_t uid, std::uint64_t block, std::uint64_t stamp)
{
    return {kMagic ^ uid, block, stamp, mixWord(uid, block, stamp)};
}

std::string
hexGroup(const std::uint64_t *w)
{
    std::ostringstream os;
    os << std::hex << "{" << w[0] << ", " << w[1] << ", " << w[2] << ", "
       << w[3] << "}";
    return os.str();
}

} // namespace

OracleDevice::OracleDevice(sim::Simulator &sim, std::string name,
                           host::BlockDeviceIf &dev, host::HostMemory &mem,
                           OpLog &log, Config cfg)
    : SimObject(sim, std::move(name)), _dev(dev), _mem(mem), _log(log),
      _cfg(cfg)
{
    BMS_ASSERT(_cfg.regionBytes >= nvme::kBlockSize,
               "oracle window smaller than one block");
    BMS_ASSERT_EQ(_cfg.regionBytes % nvme::kBlockSize, 0u,
                  "oracle window must be block aligned");
    BMS_ASSERT_EQ(_cfg.baseOffset % nvme::kBlockSize, 0u,
                  "oracle window offset must be block aligned");
    BMS_ASSERT(_cfg.maxIoBytes >= nvme::kBlockSize &&
                   _cfg.maxIoBytes % nvme::kBlockSize == 0,
               "bad oracle maxIoBytes: ", _cfg.maxIoBytes);
    _state.resize(_cfg.regionBytes / nvme::kBlockSize);
}

std::uint32_t
OracleDevice::maxIoBlocks() const
{
    return _cfg.maxIoBytes / nvme::kBlockSize;
}

void
OracleDevice::sweep(SweepTally &tally)
{
    const std::uint32_t step = maxIoBlocks();
    for (std::uint64_t b = 0; b < blocks(); b += step) {
        auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(step, blocks() - b));
        ++tally.pending;
        ++tally.reads;
        read(b, n, [&tally](bool ok) {
            --tally.pending;
            if (!ok)
                ++tally.failed;
        });
    }
}

std::uint64_t
OracleDevice::acquireBuffer()
{
    if (!_bufPool.empty()) {
        std::uint64_t addr = _bufPool.back();
        _bufPool.pop_back();
        return addr;
    }
    // Page alignment matters: chunk-straddling commands are split into
    // extents and require page-aligned PRPs (engine invariant).
    return _mem.alloc(_cfg.maxIoBytes, nvme::kPageSize);
}

void
OracleDevice::releaseBuffer(std::uint64_t addr)
{
    _bufPool.push_back(addr);
}

void
OracleDevice::fail(const std::string &what)
{
    _log.dump(std::cerr);
    BMS_PANIC("fuzz oracle ", name(), ": ", what,
              " [seed=", _cfg.seed, " tick=", now(), "]");
}

PageStore::Unit
OracleDevice::blockUnit(std::uint64_t addr, std::uint64_t block)
{
    if (std::optional<PageStore::Unit> unit = _mem.raw().unit(addr))
        return *unit;
    // A frame: some byte write landed in the block. It holds one group
    // only when all 128 are equal.
    std::array<std::uint64_t, kWordsPerBlock> words{};
    _mem.raw().read(addr, nvme::kBlockSize,
                    reinterpret_cast<std::uint8_t *>(words.data()));
    for (std::uint32_t k = 4; k < kWordsPerBlock; k += 4) {
        if (!std::equal(words.begin(), words.begin() + 4,
                        words.begin() + k)) {
            fail("block " + std::to_string(block) + " torn at word " +
                 std::to_string(k) + ": got " + hexGroup(&words[k]) +
                 ", first group " + hexGroup(words.data()));
        }
    }
    return {words[0], words[1], words[2], words[3]};
}

std::uint64_t
OracleDevice::verifyBlock(const PageStore::Unit &unit, std::uint64_t block,
                          const std::vector<StampLife> &valid)
{
    bool all_zero = unit == PageStore::Unit{};
    std::uint64_t stamp = all_zero ? 0 : unit[2];
    // Clone lineages carry parent-written patterns, so the writer's
    // uid is part of the identity: recover it from the salt word and
    // require the exact (uid, stamp) pair to be acceptable.
    std::uint32_t uid =
        all_zero ? 0 : static_cast<std::uint32_t>(unit[0] ^ kMagic);
    bool acceptable = std::any_of(
        valid.begin(), valid.end(), [&](const StampLife &l) {
            return all_zero ? l.stamp == 0
                            : (l.stamp == stamp && l.uid == uid);
        });
    if (!acceptable) {
        std::ostringstream os;
        os << "block " << block << " decoded uid " << uid << " stamp "
           << stamp << " not in acceptable set {";
        for (const StampLife &l : valid)
            os << " " << l.uid << ":" << l.stamp;
        os << " }";
        fail(os.str());
    }
    if (!all_zero && unit != pattern(uid, block, stamp))
        fail("block " + std::to_string(block) + " torn: group " +
             hexGroup(unit.data()) + ", expected uid " +
             std::to_string(uid) + " stamp " + std::to_string(stamp));
    return stamp;
}

void
OracleDevice::settleOverwrite(std::uint64_t block, std::uint32_t nblocks,
                              std::uint64_t token, bool ok)
{
    // Oldest in-flight read submit tick: dead stamps no read can
    // observe any more are pruned below.
    sim::Tick prune_before = now();
    for (sim::Tick t : _readSubmits)
        prune_before = std::min(prune_before, t);
    for (std::uint64_t b = block; b < block + nblocks; ++b) {
        BlockState &st = _state[b];
        if (st.inflight == token)
            st.inflight = 0;
        if (ok) {
            // Read-your-writes: every older stamp is dead from here
            // on (the overwrite committed no later than this
            // completion).  A failed op's stamp instead stays alive
            // next to the old ones — it may have partially committed
            // (per-extent splits / per-chunk deallocation).
            for (StampLife &l : st.lives)
                if (l.died == kNever && l.id != token)
                    l.died = now();
        }
        std::erase_if(st.lives, [prune_before](const StampLife &l) {
            return l.died < prune_before;
        });
    }
}

OracleDevice::Lineage
OracleDevice::captureLineage(sim::Tick pin_submit) const
{
    Lineage out(_state.size());
    for (std::size_t b = 0; b < _state.size(); ++b) {
        for (const StampLife &l : _state[b].lives) {
            if (l.died < pin_submit)
                continue;
            StampLife pinned = l;
            // Whichever of these stamps the pin froze, nothing
            // overwrites it on the snapshot chunk: the parent's later
            // writes divert through chunk CoW.  Only the adopting
            // clone's own writes kill inherited entries.
            pinned.died = kNever;
            out[b].push_back(pinned);
        }
        BMS_ASSERT(!out[b].empty(),
                   "lineage capture left block ", b,
                   " with no acceptable stamp");
    }
    return out;
}

void
OracleDevice::adoptLineage(const Lineage &lineage)
{
    BMS_ASSERT_EQ(lineage.size(), _state.size(),
                  "clone window geometry differs from parent");
    BMS_ASSERT(_writes == 0 && _reads == 0 && _trims == 0,
               "lineage must be adopted before any I/O");
    for (std::size_t b = 0; b < _state.size(); ++b)
        _state[b].lives = lineage[b];
}

void
OracleDevice::write(std::uint64_t block, std::uint32_t nblocks,
                    std::function<void(bool)> done)
{
    BMS_ASSERT(nblocks > 0 && nblocks <= maxIoBlocks(),
               "oracle write size out of range: ", nblocks);
    BMS_ASSERT_LE(block + nblocks, blocks(), "oracle write out of window");
    std::uint64_t stamp = ++_nextStamp;
    for (std::uint64_t b = block; b < block + nblocks; ++b) {
        BMS_ASSERT_EQ(_state[b].inflight, 0u,
                      "overlapping in-flight writes on block ", b,
                      " (generator bug)");
        _state[b].inflight = stamp;
        // The stamp's data may land on media any time from now on.
        _state[b].lives.push_back(
            StampLife{stamp, stamp, _cfg.uid, now(), kNever});
    }
    std::uint32_t len = nblocks * nvme::kBlockSize;
    std::uint64_t buf = acquireBuffer();
    // A block is a whole page: the fill maps a fresh unit page and
    // copies nothing, and a page the device still holds keeps its
    // bytes.
    for (std::uint32_t i = 0; i < nblocks; ++i)
        _mem.raw().fillUnit(buf + i * nvme::kBlockSize,
                            pattern(_cfg.uid, block + i, stamp));

    bool faulty_at_submit = _faultsActive;
    ++_writes;
    _log.record(now(), name() + " write  blk=" + std::to_string(block) +
                           "+" + std::to_string(nblocks) +
                           " stamp=" + std::to_string(stamp));

    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Write;
    req.offset = _cfg.baseOffset + block * nvme::kBlockSize;
    req.len = len;
    req.dataAddr = buf;
    req.done = [this, block, nblocks, stamp, buf, faulty_at_submit,
                done = std::move(done)](bool ok) {
        releaseBuffer(buf);
        settleOverwrite(block, nblocks, stamp, ok);
        if (!ok) {
            if (!faulty_at_submit && !_faultsActive)
                fail("write stamp=" + std::to_string(stamp) +
                     " blk=" + std::to_string(block) + "+" +
                     std::to_string(nblocks) +
                     " failed with no fault injection active");
            ++_excusedErrors;
            _log.record(now(), name() + " write-FAILED(excused) stamp=" +
                                   std::to_string(stamp));
        }
        if (done)
            done(ok);
    };
    _dev.submit(std::move(req));
}

void
OracleDevice::trim(std::uint64_t block, std::uint32_t nblocks,
                   std::function<void(bool)> done)
{
    BMS_ASSERT(nblocks > 0 && nblocks <= maxIoBlocks(),
               "oracle trim size out of range: ", nblocks);
    BMS_ASSERT_LE(block + nblocks, blocks(), "oracle trim out of window");
    // A trim is a concurrent zero write: unique op token for the
    // overwrite-kill rule, but the life it adds is the zero image.
    std::uint64_t token = ++_nextStamp;
    for (std::uint64_t b = block; b < block + nblocks; ++b) {
        BMS_ASSERT_EQ(_state[b].inflight, 0u,
                      "trim overlapping an in-flight op on block ", b,
                      " (generator bug)");
        _state[b].inflight = token;
        // The zeroes may land on media any time from now on.
        _state[b].lives.push_back(StampLife{token, 0, 0, now(), kNever});
    }
    bool faulty_at_submit = _faultsActive;
    ++_trims;
    _log.record(now(), name() + " trim   blk=" + std::to_string(block) +
                           "+" + std::to_string(nblocks));

    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Discard;
    req.offset = _cfg.baseOffset + block * nvme::kBlockSize;
    req.len = nblocks * nvme::kBlockSize;
    req.done = [this, block, nblocks, token, faulty_at_submit,
                done = std::move(done)](bool ok) {
        // Lenient on failure: the engine deallocates chunk-by-chunk,
        // so a failed DSM may still have freed or scrubbed a prefix —
        // the zero life stays alive NEXT TO the old stamps instead of
        // killing them.
        settleOverwrite(block, nblocks, token, ok);
        if (!ok) {
            if (!faulty_at_submit && !_faultsActive)
                fail("trim blk=" + std::to_string(block) + "+" +
                     std::to_string(nblocks) +
                     " failed with no fault injection active");
            ++_excusedErrors;
            _log.record(now(), name() + " trim-FAILED(excused) blk=" +
                                   std::to_string(block));
        }
        if (done)
            done(ok);
    };
    _dev.submit(std::move(req));
}

void
OracleDevice::read(std::uint64_t block, std::uint32_t nblocks,
                   std::function<void(bool)> done)
{
    BMS_ASSERT(nblocks > 0 && nblocks <= maxIoBlocks(),
               "oracle read size out of range: ", nblocks);
    BMS_ASSERT_LE(block + nblocks, blocks(), "oracle read out of window");
    std::uint32_t len = nblocks * nvme::kBlockSize;
    std::uint64_t buf = acquireBuffer();
    bool faulty_at_submit = _faultsActive;
    sim::Tick submitted = now();
    _readSubmits.push_back(submitted);
    ++_reads;
    _log.record(now(), name() + " read   blk=" + std::to_string(block) +
                           "+" + std::to_string(nblocks));

    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Read;
    req.offset = _cfg.baseOffset + block * nvme::kBlockSize;
    req.len = len;
    req.dataAddr = buf;
    req.done = [this, block, nblocks, buf, submitted, faulty_at_submit,
                done = std::move(done)](bool ok) {
        auto it = std::find(_readSubmits.begin(), _readSubmits.end(),
                            submitted);
        BMS_ASSERT(it != _readSubmits.end(), "read submit tick lost");
        _readSubmits.erase(it);
        if (!ok) {
            releaseBuffer(buf);
            if (!faulty_at_submit && !_faultsActive)
                fail("read blk=" + std::to_string(block) + "+" +
                     std::to_string(nblocks) +
                     " failed with no fault injection active");
            ++_excusedErrors;
            _log.record(now(), name() + " read-FAILED(excused) blk=" +
                                   std::to_string(block));
            if (done)
                done(false);
            return;
        }
        // Verified in place, on the pages the device delivered.
        std::vector<StampLife> valid;
        for (std::uint32_t i = 0; i < nblocks; ++i) {
            std::uint64_t b = block + i;
            // Legal stamps: lifetime overlaps this read's flight.
            // (born <= now() holds for every recorded entry, so only
            // the death side needs checking.)
            valid.clear();
            for (const StampLife &l : _state[b].lives)
                if (l.died >= submitted)
                    valid.push_back(l);
            verifyBlock(blockUnit(buf + i * nvme::kBlockSize, b), b,
                        valid);
            ++_verifiedBlocks;
        }
        releaseBuffer(buf);
        if (done)
            done(true);
    };
    _dev.submit(std::move(req));
}

void
OracleDevice::flush(std::function<void(bool)> done)
{
    ++_flushes;
    _log.record(now(), name() + " flush");
    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Flush;
    req.done = [this, done = std::move(done)](bool ok) {
        if (!ok)
            fail("flush failed (flushes never carry injected faults)");
        if (done)
            done(true);
    };
    _dev.submit(std::move(req));
}

bool
OracleDevice::writeInflight(std::uint64_t block,
                            std::uint32_t nblocks) const
{
    for (std::uint64_t b = block;
         b < block + nblocks && b < _state.size(); ++b) {
        if (_state[b].inflight)
            return true;
    }
    return false;
}

} // namespace bms::fuzz
