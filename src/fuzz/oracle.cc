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
    BMS_ASSERT_LT(_cfg.regionBytes / nvme::kBlockSize, std::uint64_t{kNone},
                  "oracle window too large");
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

template <typename F>
void
OracleDevice::forLives(std::uint64_t b, sim::Tick since, F f) const
{
    const BlockState &st = _state[b];
    f(Stamp{st.uid, st.stamp});
    for (std::uint32_t i = st.more; i != kNone; i = _lives[i].next)
        if (_lives[i].died >= since)
            f(Stamp{_lives[i].uid, _lives[i].stamp});
}

void
OracleDevice::verifyBlock(const PageStore::Unit &unit, std::uint64_t block,
                          sim::Tick since)
{
    bool all_zero = unit == PageStore::Unit{};
    // Clone lineages carry parent-written patterns, so the writer's
    // uid is part of the identity: recover it from the salt word and
    // require the exact (uid, stamp) pair to be acceptable.
    Stamp got;
    if (!all_zero)
        got = {static_cast<std::uint32_t>(unit[0] ^ kMagic), unit[2]};
    bool acceptable = false;
    forLives(block, since,
             [&](Stamp s) { acceptable = acceptable || s == got; });
    if (!acceptable) {
        std::ostringstream os;
        os << "block " << block << " decoded uid " << got.uid << " stamp "
           << got.stamp << " not in acceptable set {";
        forLives(block, since,
                 [&](Stamp s) { os << " " << s.uid << ":" << s.stamp; });
        os << " }";
        fail(os.str());
    }
    if (!all_zero && unit != pattern(got.uid, block, got.stamp))
        fail("block " + std::to_string(block) + " torn: group " +
             hexGroup(unit.data()) + ", expected uid " +
             std::to_string(got.uid) + " stamp " +
             std::to_string(got.stamp));
}

bool
OracleDevice::pending(std::uint64_t b) const
{
    std::uint32_t first = _state[b].more;
    return first != kNone && _lives[first].died == kPending;
}

void
OracleDevice::pushLife(std::uint64_t b, Stamp s, sim::Tick died)
{
    Life life{s.stamp, died, s.uid, _state[b].more};
    if (_free.empty()) {
        _state[b].more = static_cast<std::uint32_t>(_lives.size());
        _lives.push_back(life);
    } else {
        _state[b].more = _free.back();
        _free.pop_back();
        _lives[_state[b].more] = life;
    }
}

void
OracleDevice::startOp(std::uint64_t block, std::uint32_t nblocks, Stamp s)
{
    for (std::uint64_t b = block; b < block + nblocks; ++b) {
        BMS_ASSERT(!pending(b), "overlapping in-flight ops on block ", b,
                   " (generator bug)");
        // The op's image may land on media any time from now on.
        pushLife(b, s, kPending);
    }
}

void
OracleDevice::settleOverwrite(std::uint64_t block, std::uint32_t nblocks,
                              bool ok)
{
    for (std::uint64_t b = block; b < block + nblocks; ++b) {
        BMS_ASSERT(pending(b), "settled block ", b, " has no op in flight");
        BlockState &st = _state[b];
        Life &own = _lives[st.more];
        // A failed op's image stays alive next to the old ones — it may
        // have partially committed (per-extent splits / per-chunk
        // deallocation).
        own.died = kNever;
        if (!ok)
            continue;
        // Read-your-writes: every older image is dead from here on (the
        // overwrite committed no later than this completion).  The op's
        // image becomes the settled one; its node keeps the old one.
        std::swap(st.stamp, own.stamp);
        std::swap(st.uid, own.uid);
        for (std::uint32_t i = st.more; i != kNone; i = _lives[i].next) {
            if (_lives[i].died == kNever) {
                _lives[i].died = now();
                _deaths.push_back({static_cast<std::uint32_t>(b), i});
            }
        }
    }
    prune();
}

void
OracleDevice::prune()
{
    // A read submitted later in this tick may still accept a life that
    // died at it, so only earlier deaths can go, and only those no
    // observer is at or before.
    sim::Tick keep_from = now();
    for (sim::Tick t : _observers)
        keep_from = std::min(keep_from, t);
    while (!_deaths.empty() && _lives[_deaths.front().life].died < keep_from) {
        auto [b, life] = _deaths.front();
        _deaths.pop_front();
        std::uint32_t *link = &_state[b].more;
        while (*link != life)
            link = &_lives[*link].next;
        *link = _lives[life].next;
        _free.push_back(life);
    }
}

sim::Tick
OracleDevice::holdPin()
{
    _observers.push_back(now());
    return now();
}

void
OracleDevice::releasePin(sim::Tick pin)
{
    unobserve(pin);
}

void
OracleDevice::unobserve(sim::Tick tick)
{
    auto it = std::find(_observers.begin(), _observers.end(), tick);
    BMS_ASSERT(it != _observers.end(), "observer tick ", tick, " lost");
    _observers.erase(it);
    prune();
}

OracleDevice::Lineage
OracleDevice::captureLineage(sim::Tick pin) const
{
    BMS_ASSERT(pin == now() || std::find(_observers.begin(),
                                         _observers.end(),
                                         pin) != _observers.end(),
               "lineage captured at tick ", pin,
               " with no pin held there (holdPin)");
    Lineage out(_state.size());
    // Whichever of these images the pin froze, nothing overwrites it
    // on the snapshot chunk: the parent's later writes divert through
    // chunk CoW.  Only the adopting clone's own writes kill inherited
    // entries.
    for (std::size_t b = 0; b < _state.size(); ++b)
        forLives(b, pin, [&](Stamp s) { out[b].push_back(s); });
    return out;
}

void
OracleDevice::adoptLineage(const Lineage &lineage)
{
    BMS_ASSERT_EQ(lineage.size(), _state.size(),
                  "clone window geometry differs from parent");
    BMS_ASSERT(_writes == 0 && _reads == 0 && _trims == 0,
               "lineage must be adopted before any I/O");
    for (std::size_t b = 0; b < _state.size(); ++b) {
        BMS_ASSERT(!lineage[b].empty(), "lineage of block ", b,
                   " holds no image");
        _state[b].stamp = lineage[b][0].stamp;
        _state[b].uid = lineage[b][0].uid;
        for (std::size_t k = lineage[b].size(); k-- > 1;)
            pushLife(b, lineage[b][k], kNever);
    }
}

void
OracleDevice::write(std::uint64_t block, std::uint32_t nblocks,
                    std::function<void(bool)> done)
{
    BMS_ASSERT(nblocks > 0 && nblocks <= maxIoBlocks(),
               "oracle write size out of range: ", nblocks);
    BMS_ASSERT_LE(block + nblocks, blocks(), "oracle write out of window");
    std::uint64_t stamp = ++_nextStamp;
    startOp(block, nblocks, Stamp{_cfg.uid, stamp});
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
    _log.record(now(), this, "write  blk={}+{} stamp={}", block, nblocks,
                stamp);

    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Write;
    req.offset = _cfg.baseOffset + block * nvme::kBlockSize;
    req.len = len;
    req.dataAddr = buf;
    req.done = [this, block, nblocks, stamp, buf, faulty_at_submit,
                done = std::move(done)](bool ok) {
        releaseBuffer(buf);
        settleOverwrite(block, nblocks, ok);
        if (!ok) {
            if (!faulty_at_submit && !_faultsActive)
                fail("write stamp=" + std::to_string(stamp) +
                     " blk=" + std::to_string(block) + "+" +
                     std::to_string(nblocks) +
                     " failed with no fault injection active");
            ++_excusedErrors;
            _log.record(now(), this, "write-FAILED(excused) stamp={}",
                        stamp);
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
    // A trim is a concurrent zero write. It takes a stamp number like
    // any op, but the image it adds is all zeroes.
    ++_nextStamp;
    startOp(block, nblocks, Stamp{});
    bool faulty_at_submit = _faultsActive;
    ++_trims;
    _log.record(now(), this, "trim   blk={}+{}", block, nblocks);

    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Discard;
    req.offset = _cfg.baseOffset + block * nvme::kBlockSize;
    req.len = nblocks * nvme::kBlockSize;
    req.done = [this, block, nblocks, faulty_at_submit,
                done = std::move(done)](bool ok) {
        // Lenient on failure: the engine deallocates chunk-by-chunk,
        // so a failed DSM may still have freed or scrubbed a prefix —
        // the zero life stays alive NEXT TO the old stamps instead of
        // killing them.
        settleOverwrite(block, nblocks, ok);
        if (!ok) {
            if (!faulty_at_submit && !_faultsActive)
                fail("trim blk=" + std::to_string(block) + "+" +
                     std::to_string(nblocks) +
                     " failed with no fault injection active");
            ++_excusedErrors;
            _log.record(now(), this, "trim-FAILED(excused) blk={}", block);
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
    _observers.push_back(submitted);
    ++_reads;
    _log.record(now(), this, "read   blk={}+{}", block, nblocks);

    host::BlockRequest req;
    req.op = host::BlockRequest::Op::Read;
    req.offset = _cfg.baseOffset + block * nvme::kBlockSize;
    req.len = len;
    req.dataAddr = buf;
    req.done = [this, block, nblocks, buf, submitted, faulty_at_submit,
                done = std::move(done)](bool ok) {
        // Verified in place, on the pages the device delivered, against
        // the images whose lives overlap this read's flight.
        if (ok) {
            for (std::uint32_t i = 0; i < nblocks; ++i) {
                std::uint64_t b = block + i;
                verifyBlock(blockUnit(buf + i * nvme::kBlockSize, b), b,
                            submitted);
                ++_verifiedBlocks;
            }
        }
        releaseBuffer(buf);
        unobserve(submitted);
        if (!ok) {
            if (!faulty_at_submit && !_faultsActive)
                fail("read blk=" + std::to_string(block) + "+" +
                     std::to_string(nblocks) +
                     " failed with no fault injection active");
            ++_excusedErrors;
            _log.record(now(), this, "read-FAILED(excused) blk={}", block);
        }
        if (done)
            done(ok);
    };
    _dev.submit(std::move(req));
}

void
OracleDevice::flush(std::function<void(bool)> done)
{
    ++_flushes;
    _log.record(now(), this, "flush");
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
        if (pending(b))
            return true;
    }
    return false;
}

} // namespace bms::fuzz
