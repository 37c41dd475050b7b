#include "core/engine/migration_gate.hh"

#include <algorithm>
#include <utility>

#include "sim/check.hh"

namespace bms::core {

MigrationGate::MigrationGate(sim::Simulator &sim, std::string name)
    : SimObject(sim, std::move(name))
{
    registerStat("mirroredWrites", [this] { return double(_mirrored); });
    registerStat("heldWrites", [this] { return double(_heldTotal); });
    registerStat("dirtyRequeues", [this] { return double(_dirtyRequeues); });
    registerStat("tierMirroredWrites",
                 [this] { return double(_tierMirrored); });
}

void
MigrationGate::setTierMirror(std::uint8_t src_slot, std::uint32_t src_chunk,
                             std::uint8_t dst_slot, std::uint32_t dst_chunk)
{
    std::uint32_t key = chunkKey(src_slot, src_chunk);
    BMS_ASSERT(!_tierMirrors.count(key),
               "tier mirror already set for slot ", int(src_slot),
               " chunk ", src_chunk);
    _tierMirrors.emplace(key, TierTarget{dst_slot, dst_chunk});
}

void
MigrationGate::clearTierMirror(std::uint8_t src_slot,
                               std::uint32_t src_chunk)
{
    std::uint32_t key = chunkKey(src_slot, src_chunk);
    BMS_ASSERT(_tierMirrors.count(key),
               "clearing an unset tier mirror for slot ", int(src_slot),
               " chunk ", src_chunk);
    _tierMirrors.erase(key);
}

bool
MigrationGate::onSrcChunk(const PhysExtent &e,
                          std::uint64_t chunk_blocks) const
{
    return e.ssdId == _srcSlot && chunk_blocks == _chunkBlocks &&
           e.physLba / chunk_blocks == _srcChunk;
}

std::vector<std::uint32_t>
MigrationGate::touchedSegs(const PhysExtent &e) const
{
    std::uint64_t off = e.physLba - std::uint64_t(_srcChunk) * _chunkBlocks;
    auto s0 = static_cast<std::uint32_t>(off / _segBlocks);
    auto s1 = static_cast<std::uint32_t>((off + e.blocks - 1) / _segBlocks);
    std::vector<std::uint32_t> out;
    for (std::uint32_t s = s0; s <= s1 && s < _numSegs; ++s)
        out.push_back(s);
    return out;
}

bool
MigrationGate::touchesFenced(const std::vector<PhysExtent> &extents,
                             std::uint64_t chunk_blocks) const
{
    if (_fencedSeg < 0)
        return false;
    for (const PhysExtent &e : extents) {
        if (!onSrcChunk(e, chunk_blocks))
            continue;
        for (std::uint32_t s : touchedSegs(e))
            if (s == static_cast<std::uint32_t>(_fencedSeg))
                return true;
    }
    return false;
}

bool
MigrationGate::admit(std::uint32_t h, bool is_write,
                     const std::vector<PhysExtent> &extents,
                     std::uint64_t chunk_blocks,
                     std::vector<PhysExtent> &mirrors,
                     std::function<void()> release)
{
    if (_active && is_write && touchesFenced(extents, chunk_blocks)) {
        ++_heldTotal;
        _held.push_back(std::move(release));
        return false;
    }
    ++_admitted;
    if (h >= _recs.size())
        _recs.resize(h + 1);
    Rec &rec = _recs[h];
    BMS_ASSERT(!rec.live, "gate slot ", h, " admitted twice");
    rec.live = true;
    rec.isWrite = is_write;
    rec.epoch = 0;
    rec.segTracked = rec.mirrored = rec.flipped = false;
    rec.extents.assign(extents.begin(), extents.end());
    rec.segs.clear();
    rec.chunkKeys.clear();

    mirrors.clear();
    if (_active && is_write) {
        rec.epoch = _epoch;
        bool any_copied = false;
        for (const PhysExtent &e : extents) {
            if (!onSrcChunk(e, chunk_blocks))
                continue;
            for (std::uint32_t s : touchedSegs(e)) {
                rec.segs.push_back(s);
                ++_segWrites[s];
                if (_copied[s])
                    any_copied = true;
            }
        }
        rec.segTracked = !rec.segs.empty();
        if (any_copied) {
            // Mirror every part of the write that lands on the
            // migrating chunk; re-copying an uncopied segment later
            // rewrites the same bytes, so over-mirroring is safe.
            for (const PhysExtent &e : extents) {
                if (!onSrcChunk(e, chunk_blocks))
                    continue;
                std::uint64_t off =
                    e.physLba - std::uint64_t(_srcChunk) * _chunkBlocks;
                mirrors.push_back(PhysExtent{
                    _dstSlot,
                    std::uint64_t(_dstChunk) * _chunkBlocks + off,
                    e.byteOffset, e.blocks});
            }
            rec.mirrored = !mirrors.empty();
            if (rec.mirrored)
                ++_mirrored;
        }
    }

    if (is_write && !_tierMirrors.empty()) {
        std::size_t mig_legs = mirrors.size();
        for (const PhysExtent &e : extents) {
            auto it = _tierMirrors.find(
                chunkKey(e.ssdId, e.physLba / chunk_blocks));
            if (it == _tierMirrors.end())
                continue;
            std::uint64_t off = e.physLba % chunk_blocks;
            mirrors.push_back(PhysExtent{
                it->second.slot,
                std::uint64_t(it->second.chunk) * chunk_blocks + off,
                e.byteOffset, e.blocks, /*strict=*/true});
        }
        if (mirrors.size() > mig_legs) {
            ++_tierMirrored;
            // During a promote the migration destination IS the
            // shadow: a write may grow both a best-effort migration
            // mirror and a strict tier leg for the same physical
            // range. Keep only the strict one (one submission; its
            // failure both fails the write and dirty-requeues).
            auto same = [&](const PhysExtent &a) {
                for (std::size_t i = mig_legs; i < mirrors.size(); ++i) {
                    const PhysExtent &s = mirrors[i];
                    if (!a.strict && s.ssdId == a.ssdId &&
                        s.physLba == a.physLba && s.blocks == a.blocks)
                        return true;
                }
                return false;
            };
            for (std::size_t i = 0; i < mig_legs;) {
                if (same(mirrors[i])) {
                    mirrors.erase(mirrors.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                    --mig_legs;
                } else {
                    ++i;
                }
            }
        }
    }

    for (const PhysExtent &e : extents) {
        std::uint32_t key = chunkKey(e.ssdId, e.physLba / chunk_blocks);
        rec.chunkKeys.push_back(key);
        ++_chunkInflight[key];
    }
    for (const PhysExtent &m : mirrors) {
        std::uint32_t key = chunkKey(m.ssdId, m.physLba / chunk_blocks);
        rec.chunkKeys.push_back(key);
        ++_chunkInflight[key];
    }
    return true;
}

bool
MigrationGate::complete(std::uint32_t h, bool mirror_ok)
{
    BMS_ASSERT(h < _recs.size() && _recs[h].live,
               "completion for unadmitted gate slot ", h);
    Rec &rec = _recs[h];
    rec.live = false;

    for (std::uint32_t key : rec.chunkKeys) {
        auto ci = _chunkInflight.find(key);
        BMS_ASSERT(ci != _chunkInflight.end() && ci->second > 0,
                   "chunk-inflight underflow for key ", key);
        if (--ci->second == 0) {
            _chunkInflight.erase(ci);
            fireIdleWaiters(key);
        }
    }

    // Read before deliverFence(): its callback may re-admit commands
    // and grow _recs under `rec`.
    const bool lost = !mirror_ok && rec.flipped;
    if (_active && rec.segTracked && rec.epoch == _epoch) {
        for (std::uint32_t s : rec.segs) {
            BMS_ASSERT(_segWrites[s] > 0, "segment write-count underflow");
            --_segWrites[s];
        }
        if (rec.mirrored && !mirror_ok) {
            // The source leg is authoritative; bring the destination
            // back in sync by re-copying what this write touched.
            for (std::uint32_t s : rec.segs) {
                if (_copied[s] && !_inDirty[s]) {
                    _copied[s] = false;
                    _inDirty[s] = true;
                    _dirty.push_back(s);
                    ++_dirtyRequeues;
                }
            }
        }
        if (_fencedSeg >= 0 && !_fenceReady &&
            _segWrites[static_cast<std::uint32_t>(_fencedSeg)] == 0) {
            deliverFence();
        }
    }
    return !lost;
}

void
MigrationGate::open(std::uint8_t src_slot, std::uint8_t src_chunk,
                    std::uint8_t dst_slot, std::uint8_t dst_chunk,
                    std::uint64_t chunk_blocks, std::uint64_t seg_blocks)
{
    BMS_ASSERT(!_active, "migration already open");
    BMS_ASSERT(seg_blocks > 0 && chunk_blocks > 0,
               "degenerate migration geometry");
    _active = true;
    ++_epoch;
    _srcSlot = src_slot;
    _srcChunk = src_chunk;
    _dstSlot = dst_slot;
    _dstChunk = dst_chunk;
    _chunkBlocks = chunk_blocks;
    _segBlocks = seg_blocks;
    _numSegs = static_cast<std::uint32_t>(
        (chunk_blocks + seg_blocks - 1) / seg_blocks);
    _copied.assign(_numSegs, false);
    _segWrites.assign(_numSegs, 0);
    _inDirty.assign(_numSegs, false);
    _dirty.clear();
    _cursor = 0;
    _fencedSeg = -1;
    _fenceReady = false;
    _fenceCb = nullptr;

    // Writes already in flight on the source chunk were admitted
    // before the migration existed; count them into the per-segment
    // fences so the copier waits for them like any other write.
    for (Rec &rec : _recs) {
        if (!rec.live || !rec.isWrite || rec.segTracked)
            continue;
        for (const PhysExtent &e : rec.extents) {
            if (!onSrcChunk(e, chunk_blocks))
                continue;
            for (std::uint32_t s : touchedSegs(e)) {
                rec.segs.push_back(s);
                ++_segWrites[s];
            }
        }
        if (!rec.segs.empty()) {
            rec.segTracked = true;
            rec.epoch = _epoch;
        }
    }
}

bool
MigrationGate::fenceNextSegment(std::function<void(std::uint32_t)> fenced)
{
    BMS_ASSERT(_active, "fence without an open migration");
    BMS_ASSERT(_fencedSeg < 0, "previous segment fence still open");
    std::uint32_t seg;
    if (!_dirty.empty()) {
        seg = _dirty.front();
        _dirty.pop_front();
        _inDirty[seg] = false;
    } else {
        while (_cursor < _numSegs && (_copied[_cursor] || _inDirty[_cursor]))
            ++_cursor;
        if (_cursor >= _numSegs)
            return false;
        seg = _cursor;
    }
    _fencedSeg = static_cast<int>(seg);
    _fenceReady = false;
    _fenceCb = std::move(fenced);
    if (_segWrites[seg] == 0)
        deliverFence();
    return true;
}

void
MigrationGate::deliverFence()
{
    _fenceReady = true;
    auto cb = _fenceCb;
    cb(static_cast<std::uint32_t>(_fencedSeg));
}

void
MigrationGate::segmentCopied(std::uint32_t seg)
{
    BMS_ASSERT(_active && _fencedSeg == static_cast<int>(seg) &&
                   _fenceReady,
               "segmentCopied without a delivered fence on segment ", seg);
    _copied[seg] = true;
    _fencedSeg = -1;
    _fenceCb = nullptr;
    releaseHeld();
}

void
MigrationGate::closeMigration(bool flipped)
{
    BMS_ASSERT(_active, "closeMigration without an open migration");
    if (flipped) {
        // Writes still mirroring into the new placement can no longer
        // be re-copied: a failed leg now loses them (complete()).
        for (Rec &rec : _recs)
            if (rec.live && rec.mirrored && rec.epoch == _epoch)
                rec.flipped = true;
    }
    _active = false;
    _fencedSeg = -1;
    _fenceReady = false;
    _fenceCb = nullptr;
    _copied.clear();
    _segWrites.clear();
    _dirty.clear();
    _inDirty.clear();
    _numSegs = 0;
    releaseHeld();
}

void
MigrationGate::releaseHeld()
{
    // Released writes may immediately be re-held by the next fence
    // (admit re-checks), so drain from a local queue.
    std::deque<std::function<void()>> held;
    held.swap(_held);
    while (!held.empty()) {
        std::function<void()> release = std::move(held.front());
        held.pop_front();
        release();
    }
}

void
MigrationGate::whenChunkIdle(std::uint8_t slot, std::uint8_t chunk,
                             std::function<void()> idle)
{
    std::uint32_t key = chunkKey(slot, chunk);
    auto it = _chunkInflight.find(key);
    if (it == _chunkInflight.end() || it->second == 0) {
        schedule(0, std::move(idle));
        return;
    }
    _idleWaiters.emplace_back(key, std::move(idle));
}

void
MigrationGate::fireIdleWaiters(std::uint32_t key)
{
    for (std::size_t i = 0; i < _idleWaiters.size();) {
        if (_idleWaiters[i].first == key) {
            schedule(0, std::move(_idleWaiters[i].second));
            _idleWaiters.erase(_idleWaiters.begin() +
                               static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

} // namespace bms::core
