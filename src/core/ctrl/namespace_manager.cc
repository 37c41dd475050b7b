#include "core/ctrl/namespace_manager.hh"

#include <algorithm>
#include <string>
#include <utility>

namespace bms::core {

NamespaceManager::Pool *
NamespaceManager::poolFor(int slot)
{
    for (auto &pool : _pools)
        if (pool.slot == slot)
            return &pool;
    return nullptr;
}

const NamespaceManager::Pool *
NamespaceManager::poolFor(int slot) const
{
    for (const auto &pool : _pools)
        if (pool.slot == slot)
            return &pool;
    return nullptr;
}

NamespaceManager::NsRecord *
NamespaceManager::recordFor(pcie::FunctionId fn, std::uint32_t nsid)
{
    for (auto &rec : _records)
        if (rec.fn == fn && rec.nsid == nsid)
            return &rec;
    return nullptr;
}

const NamespaceManager::NsRecord *
NamespaceManager::recordFor(pcie::FunctionId fn, std::uint32_t nsid) const
{
    for (const auto &rec : _records)
        if (rec.fn == fn && rec.nsid == nsid)
            return &rec;
    return nullptr;
}

void
NamespaceManager::registerSsd(int slot, std::uint64_t capacity_bytes,
                              bool remote)
{
    std::uint64_t chunk_bytes = chunkBlocks() * nvme::kBlockSize;
    std::uint64_t chunks = capacity_bytes / chunk_bytes;
    // The map entry's chunk-base field bounds physical chunks per SSD
    // (6 bits in the narrow format, 8 in the wide one).
    chunks = std::min<std::uint64_t>(
        chunks, static_cast<std::uint64_t>(_geom.maxChunkBase()) + 1);
    Pool pool;
    pool.slot = slot;
    pool.rows.resize(chunks);
    pool.remote = remote;
    auto it = std::find_if(_pools.begin(), _pools.end(),
                           [slot](const Pool &p) { return p.slot == slot; });
    if (it != _pools.end()) {
        pool.quiesce = it->quiesce;
        *it = std::move(pool);
    } else {
        _pools.push_back(std::move(pool));
    }
}

std::optional<std::vector<NamespaceManager::Allocation>>
NamespaceManager::allocate(std::uint32_t chunks, Policy policy,
                           int pin_slot)
{
    std::vector<Allocation> out;
    out.reserve(chunks);
    if (_pools.empty())
        return std::nullopt;
    auto take_from = [this, &out, policy](Pool &pool) {
        // Capacity placement stays on local SSDs; remote pools only
        // fill via the tiering manager (or an explicit Dedicate pin).
        if (pool.remote && policy != Policy::Dedicate)
            return false;
        auto c = claimFree(pool, ChunkState::Owned);
        if (c)
            out.push_back(
                Allocation{static_cast<std::uint8_t>(pool.slot), *c});
        return c.has_value();
    };
    for (std::uint32_t i = 0; i < chunks; ++i) {
        bool ok = false;
        if (policy == Policy::Dedicate) {
            for (auto &pool : _pools) {
                if (pool.slot == pin_slot) {
                    ok = take_from(pool);
                    break;
                }
            }
        } else if (policy == Policy::RoundRobin) {
            for (std::size_t tries = 0; tries < _pools.size() && !ok;
                 ++tries) {
                ok = take_from(_pools[static_cast<std::size_t>(_rr) %
                                      _pools.size()]);
                _rr = (_rr + 1) % static_cast<int>(_pools.size());
            }
        } else {
            for (auto &pool : _pools) {
                if ((ok = take_from(pool)))
                    break;
            }
        }
        if (!ok) {
            release(out);
            return std::nullopt;
        }
    }
    return out;
}

void
NamespaceManager::release(const std::vector<Allocation> &allocs)
{
    for (const Allocation &a : allocs) {
        if (a.unallocated())
            continue;
        dropHolder(a.slot, a.chunk);
    }
}

std::optional<std::uint32_t>
NamespaceManager::createAndAttach(pcie::FunctionId fn, std::uint64_t bytes,
                                  Policy policy, QosLimits qos,
                                  int pin_slot)
{
    std::uint64_t chunk_bytes = chunkBlocks() * nvme::kBlockSize;
    auto chunks = static_cast<std::uint32_t>(
        (bytes + chunk_bytes - 1) / chunk_bytes);
    if (chunks == 0)
        return std::nullopt;

    if (chunks > _geom.rows * _geom.entriesPerRow)
        return std::nullopt;

    auto allocs = allocate(chunks, policy, pin_slot);
    if (!allocs)
        return std::nullopt;
    // Stagger the starting SSD of consecutive namespaces so that
    // sequential streams (which dwell in their first chunk for a long
    // time) spread across the back end even when the chunk count per
    // namespace is a multiple of the SSD count.
    if (policy == Policy::RoundRobin && !_pools.empty())
        _rr = (_rr + 1) % static_cast<int>(_pools.size());

    std::uint32_t nsid = _nextNsid[fn]++;
    NsBinding &binding =
        _engine.bind(fn, nsid, bytes / nvme::kBlockSize, _geom);
    for (const Allocation &a : *allocs) {
        auto pos = binding.map.appendChunk(a.chunk, a.slot);
        BMS_ASSERT(pos, "mapping table full despite size check");
    }
    if (!qos.unlimited())
        _engine.setQos(fn, nsid, qos);
    _records.push_back(NsRecord{fn, nsid, std::move(*allocs), 0, false,
                                policy, pin_slot});
    return nsid;
}

std::optional<std::uint32_t>
NamespaceManager::createThin(pcie::FunctionId fn, std::uint64_t bytes,
                             Policy policy, QosLimits qos, int pin_slot)
{
    std::uint64_t chunk_bytes = chunkBlocks() * nvme::kBlockSize;
    auto chunks = static_cast<std::uint32_t>(
        (bytes + chunk_bytes - 1) / chunk_bytes);
    if (chunks == 0)
        return std::nullopt;
    // Only the mapping table bounds a thin namespace — the pools may
    // be promised many times over (overcommit).
    if (chunks > _geom.rows * _geom.entriesPerRow)
        return std::nullopt;

    std::uint32_t nsid = _nextNsid[fn]++;
    _engine.bind(fn, nsid, bytes / nvme::kBlockSize, _geom);
    if (!qos.unlimited())
        _engine.setQos(fn, nsid, qos);
    _records.push_back(NsRecord{
        fn, nsid,
        std::vector<Allocation>(chunks, Allocation{kUnallocSlot, 0}), 0,
        true, policy, pin_slot});
    return nsid;
}

std::optional<std::uint64_t>
NamespaceManager::grow(pcie::FunctionId fn, std::uint32_t nsid,
                       std::uint64_t extra_bytes, Policy policy,
                       int pin_slot)
{
    NsRecord *rec = recordFor(fn, nsid);
    if (!rec)
        return std::nullopt;
    NsBinding *binding = _engine.findBinding(fn, nsid);
    BMS_ASSERT(binding, "namespace record without engine binding: fn=",
               fn, " nsid=", nsid);

    std::uint64_t extra_blocks =
        (extra_bytes + nvme::kBlockSize - 1) / nvme::kBlockSize;
    std::uint64_t new_blocks = binding->info.sizeBlocks + extra_blocks;
    std::uint64_t chunk_blocks = chunkBlocks();
    std::uint64_t chunks_needed =
        (new_blocks + chunk_blocks - 1) / chunk_blocks;
    const LbaMapGeometry &geom = binding->map.geometry();
    if (chunks_needed > static_cast<std::uint64_t>(geom.rows) *
                            geom.entriesPerRow) {
        return std::nullopt;
    }
    // The covered chunks may already span the new size (the original
    // size was rounded up to whole chunks).
    std::uint64_t current = rec->allocs.size();
    if (chunks_needed > current) {
        if (rec->thin) {
            // Thin growth promises more chunks; backing arrives on
            // first write like any other thin chunk.
            rec->allocs.resize(chunks_needed, Allocation{kUnallocSlot, 0});
        } else {
            auto allocs = allocate(
                static_cast<std::uint32_t>(chunks_needed - current), policy,
                pin_slot);
            if (!allocs)
                return std::nullopt;
            for (const Allocation &a : *allocs) {
                auto pos = binding->map.appendChunk(a.chunk, a.slot);
                BMS_ASSERT(pos, "mapping table full despite size check");
            }
            rec->allocs.insert(rec->allocs.end(), allocs->begin(),
                               allocs->end());
        }
    }
    binding->info.sizeBlocks = new_blocks;
    return new_blocks * nvme::kBlockSize;
}

bool
NamespaceManager::destroy(pcie::FunctionId fn, std::uint32_t nsid)
{
    auto it = std::find_if(_records.begin(), _records.end(),
                           [fn, nsid](const NsRecord &r) {
                               return r.fn == fn && r.nsid == nsid;
                           });
    if (it == _records.end())
        return false;
    // A live migration holds the namespace: destroying it now would
    // free the destination chunk under the copier's feet.
    if (it->locks > 0)
        return false;
    // Erase the record before releasing so the shared-bit owner scan
    // in maybeClearShared() no longer sees the dying namespace.
    std::vector<Allocation> allocs = std::move(it->allocs);
    _records.erase(it);
    _engine.unbind(fn, nsid);
    release(allocs);
    if (sim::Check::paranoid())
        checkRefInvariants();
    return true;
}

std::uint64_t
NamespaceManager::freeChunks(int slot) const
{
    const Pool *pool = poolFor(slot);
    if (!pool)
        return 0;
    return static_cast<std::uint64_t>(std::count_if(
        pool->rows.begin(), pool->rows.end(), [](const ChunkRow &r) {
            return r.state == ChunkState::Free;
        }));
}

std::uint64_t
NamespaceManager::totalChunks(int slot) const
{
    if (const Pool *pool = poolFor(slot))
        return pool->rows.size();
    return 0;
}

std::vector<NamespaceManager::Occupancy>
NamespaceManager::occupancy() const
{
    std::vector<Occupancy> out;
    out.reserve(_pools.size());
    for (const Pool &pool : _pools) {
        Occupancy o;
        o.slot = pool.slot;
        o.total = pool.rows.size();
        o.free = freeChunks(pool.slot);
        o.used = o.total - o.free;
        o.quiesced = pool.quiesce > 0;
        o.remote = pool.remote;
        out.push_back(o);
    }
    std::sort(out.begin(), out.end(),
              [](const Occupancy &a, const Occupancy &b) {
                  return a.slot < b.slot;
              });
    // Logical (promised) chunks: allocated chunks attribute to their
    // slot; unallocated thin chunks have no placement yet, so they
    // are spread evenly over the allocatable local slots (in slot
    // order) — the per-slot numbers always sum to the true promise.
    std::uint64_t unplaced = 0;
    for (const NsRecord &rec : _records) {
        for (const Allocation &a : rec.allocs) {
            if (a.unallocated()) {
                ++unplaced;
                continue;
            }
            for (Occupancy &o : out) {
                if (o.slot == a.slot) {
                    ++o.logical;
                    break;
                }
            }
        }
    }
    std::uint64_t eligible = 0;
    for (const Occupancy &o : out)
        if (!o.remote)
            ++eligible;
    if (eligible > 0) {
        std::uint64_t k = 0;
        for (Occupancy &o : out) {
            if (o.remote)
                continue;
            o.logical += unplaced / eligible +
                         (k < unplaced % eligible ? 1 : 0);
            ++k;
        }
    }
    return out;
}

std::vector<NamespaceManager::ChunkRef>
NamespaceManager::chunksOn(int slot) const
{
    std::vector<ChunkRef> out;
    for (const NsRecord &rec : _records) {
        for (std::size_t i = 0; i < rec.allocs.size(); ++i) {
            if (!rec.allocs[i].unallocated() &&
                rec.allocs[i].slot == slot) {
                out.push_back(ChunkRef{rec.fn, rec.nsid,
                                       static_cast<std::uint32_t>(i),
                                       rec.allocs[i].slot,
                                       rec.allocs[i].chunk});
            }
        }
    }
    return out;
}

std::optional<NamespaceManager::Allocation>
NamespaceManager::chunkAt(pcie::FunctionId fn, std::uint32_t nsid,
                          std::uint32_t chunk_index) const
{
    const NsRecord *rec = recordFor(fn, nsid);
    if (!rec || chunk_index >= rec->allocs.size() ||
        rec->allocs[chunk_index].unallocated()) {
        return std::nullopt;
    }
    return rec->allocs[chunk_index];
}

bool
NamespaceManager::isThin(pcie::FunctionId fn, std::uint32_t nsid) const
{
    const NsRecord *rec = recordFor(fn, nsid);
    return rec && rec->thin;
}

std::optional<NamespaceManager::Allocation>
NamespaceManager::allocateChunkAt(pcie::FunctionId fn, std::uint32_t nsid,
                                  std::uint32_t chunk_index)
{
    NsRecord *rec = recordFor(fn, nsid);
    if (!rec || chunk_index >= rec->allocs.size())
        return std::nullopt;
    BMS_ASSERT(rec->thin, "allocate-on-write into a fully provisioned "
               "namespace: fn=", fn, " nsid=", nsid);
    BMS_ASSERT(rec->allocs[chunk_index].unallocated(),
               "allocate-on-write of an already backed chunk: fn=", fn,
               " nsid=", nsid, " chunk=", chunk_index);
    auto allocs = allocate(1, rec->policy, rec->pinSlot);
    if (!allocs)
        return std::nullopt;
    rec->allocs[chunk_index] = allocs->front();
    return allocs->front();
}

bool
NamespaceManager::freeChunkAt(pcie::FunctionId fn, std::uint32_t nsid,
                              std::uint32_t chunk_index)
{
    NsRecord *rec = recordFor(fn, nsid);
    if (!rec || chunk_index >= rec->allocs.size() ||
        rec->allocs[chunk_index].unallocated()) {
        return false;
    }
    NsBinding *binding = _engine.findBinding(fn, nsid);
    BMS_ASSERT(binding, "namespace record without engine binding: fn=",
               fn, " nsid=", nsid);
    const LbaMapGeometry &geom = binding->map.geometry();
    binding->map.invalidate(chunk_index / geom.entriesPerRow,
                            chunk_index % geom.entriesPerRow);
    Allocation a = rec->allocs[chunk_index];
    rec->allocs[chunk_index] = Allocation{kUnallocSlot, 0};
    rec->thin = true; // it now has a hole: backing returns on write
    dropHolder(a.slot, a.chunk);
    if (sim::Check::paranoid())
        checkRefInvariants();
    return true;
}

std::optional<std::uint32_t>
NamespaceManager::snapshot(pcie::FunctionId fn, std::uint32_t nsid)
{
    NsRecord *rec = recordFor(fn, nsid);
    if (!rec || rec->locks > 0)
        return std::nullopt;
    NsBinding *binding = _engine.findBinding(fn, nsid);
    BMS_ASSERT(binding, "namespace record without engine binding: fn=",
               fn, " nsid=", nsid);
    const LbaMapGeometry &geom = binding->map.geometry();
    // Validate before mutating: no chunk on a remote tier slot (the
    // CoW copy path and pin accounting are local-only), and no thin
    // allocation mid-scrub (alloc recorded, entry not yet live).
    for (std::size_t i = 0; i < rec->allocs.size(); ++i) {
        const Allocation &a = rec->allocs[i];
        if (a.unallocated())
            continue;
        const Pool *pool = poolFor(a.slot);
        if (!pool || pool->remote)
            return std::nullopt;
        if (!binding->map.entryValid(
                static_cast<std::uint32_t>(i / geom.entriesPerRow),
                static_cast<std::uint32_t>(i % geom.entriesPerRow))) {
            return std::nullopt;
        }
    }
    for (std::size_t i = 0; i < rec->allocs.size(); ++i) {
        const Allocation &a = rec->allocs[i];
        if (a.unallocated())
            continue;
        retainChunk(a.slot, a.chunk);
        binding->map.setShared(
            static_cast<std::uint32_t>(i / geom.entriesPerRow),
            static_cast<std::uint32_t>(i % geom.entriesPerRow), true);
    }
    std::uint32_t id = _nextSnapId++;
    _snaps.push_back(SnapRecord{id, fn, nsid, binding->info.sizeBlocks,
                                rec->allocs, rec->policy, rec->pinSlot});
    if (sim::Check::paranoid())
        checkRefInvariants();
    return id;
}

std::optional<std::uint32_t>
NamespaceManager::clone(std::uint32_t snap_id, pcie::FunctionId fn,
                        QosLimits qos)
{
    const SnapRecord *snap = nullptr;
    for (const SnapRecord &s : _snaps)
        if (s.id == snap_id)
            snap = &s;
    if (!snap)
        return std::nullopt;
    std::uint32_t nsid = _nextNsid[fn]++;
    NsBinding &binding = _engine.bind(fn, nsid, snap->sizeBlocks, _geom);
    const LbaMapGeometry &geom = binding.map.geometry();
    for (std::size_t i = 0; i < snap->allocs.size(); ++i) {
        const Allocation &a = snap->allocs[i];
        if (a.unallocated())
            continue;
        auto row = static_cast<std::uint32_t>(i / geom.entriesPerRow);
        auto col = static_cast<std::uint32_t>(i % geom.entriesPerRow);
        bool ok = binding.map.setEntry(row, col, a.chunk, a.slot);
        BMS_ASSERT(ok, "clone mapping entry out of geometry: slot=",
                   int(a.slot), " chunk=", int(a.chunk));
        binding.map.setShared(row, col, true);
        retainChunk(a.slot, a.chunk);
    }
    if (!qos.unlimited())
        _engine.setQos(fn, nsid, qos);
    // A clone is thin by construction: never-written chunks stay
    // unallocated and every inherited chunk CoWs on first write.
    _records.push_back(NsRecord{fn, nsid, snap->allocs, 0, true,
                                snap->policy, snap->pinSlot});
    if (sim::Check::paranoid())
        checkRefInvariants();
    return nsid;
}

bool
NamespaceManager::deleteSnapshot(std::uint32_t snap_id)
{
    auto it = std::find_if(_snaps.begin(), _snaps.end(),
                           [snap_id](const SnapRecord &s) {
                               return s.id == snap_id;
                           });
    if (it == _snaps.end())
        return false;
    // Erase first so the owner scan in maybeClearShared() sees only
    // the surviving owners.
    std::vector<Allocation> allocs = std::move(it->allocs);
    _snaps.erase(it);
    release(allocs);
    if (sim::Check::paranoid())
        checkRefInvariants();
    return true;
}

std::vector<MiSnapInfo>
NamespaceManager::snapshots() const
{
    std::vector<MiSnapInfo> out;
    out.reserve(_snaps.size());
    for (const SnapRecord &s : _snaps) {
        MiSnapInfo info;
        info.id = s.id;
        info.srcFn = s.srcFn;
        info.srcNsid = s.srcNsid;
        info.sizeBlocks = s.sizeBlocks;
        for (const Allocation &a : s.allocs)
            if (!a.unallocated())
                ++info.pinnedChunks;
        out.push_back(info);
    }
    std::sort(out.begin(), out.end(),
              [](const MiSnapInfo &a, const MiSnapInfo &b) {
                  return a.id < b.id;
              });
    return out;
}

const NamespaceManager::ChunkRow *
NamespaceManager::findRow(int slot, std::uint8_t chunk) const
{
    const Pool *pool = poolFor(slot);
    return pool && chunk < pool->rows.size() ? &pool->rows[chunk] : nullptr;
}

NamespaceManager::ChunkRow &
NamespaceManager::rowAt(int slot, std::uint8_t chunk)
{
    Pool *pool = poolFor(slot);
    BMS_ASSERT(pool && chunk < pool->rows.size(), "chunk outside pool: slot=",
               slot, " chunk=", chunk);
    return pool->rows[chunk];
}

std::optional<std::uint8_t>
NamespaceManager::claimFree(Pool &pool, ChunkState state)
{
    if (pool.quiesce > 0)
        return std::nullopt;
    for (std::size_t c = 0; c < pool.rows.size(); ++c) {
        if (pool.rows[c].state == ChunkState::Free) {
            pool.rows[c] = ChunkRow{state, state == ChunkState::Owned};
            return static_cast<std::uint8_t>(c);
        }
    }
    return std::nullopt;
}

std::uint16_t
NamespaceManager::chunkRefs(int slot, std::uint8_t chunk) const
{
    const ChunkRow *row = findRow(slot, chunk);
    return row ? row->holders : 0;
}

void
NamespaceManager::retainChunk(int slot, std::uint8_t chunk)
{
    // A CoW source still draining may be named by a snapshot or a
    // sharing namespace, and a clone or snapshot of it retains it.
    ChunkRow &row = rowAt(slot, chunk);
    BMS_ASSERT(row.holders > 0, "retain of a chunk no record holds: ", chunk,
               " on slot ", slot);
    ++row.holders;
}

void
NamespaceManager::dropHolder(int slot, std::uint8_t chunk)
{
    ChunkRow &row = rowAt(slot, chunk);
    BMS_ASSERT(row.holders > 0, "double free of chunk ", chunk, " on slot ",
               slot);
    if (--row.holders == 0 && row.state == ChunkState::Owned) {
        if (!row.link.unallocated()) {
            // The last holder of a spilled primary: its shadow and
            // the strict mirror into it go in the same instant.
            _engine.migrationGate().clearTierMirror(
                static_cast<std::uint8_t>(slot), chunk);
            rowAt(row.link.slot, row.link.chunk) = ChunkRow();
        }
        row = ChunkRow();
    }
    // Dropping to a single holder ends CoW protection for it — every
    // record release (destroy, TRIM, snapshot delete) funnels here.
    maybeClearShared(slot, chunk);
}

void
NamespaceManager::maybeClearShared(int slot, std::uint8_t chunk)
{
    const ChunkRow *row = findRow(slot, chunk);
    // A draining chunk's pre-flip I/O still counts as a sharer.
    if (!row || row->state != ChunkState::Owned || row->holders != 1)
        return;
    // Exactly one holder remains. If it is a namespace, its mapping
    // entry no longer needs CoW protection; a snapshot holder has no
    // mapping table to update.
    for (const NsRecord &rec : _records) {
        for (std::size_t i = 0; i < rec.allocs.size(); ++i) {
            const Allocation &a = rec.allocs[i];
            if (a.unallocated() || a.slot != slot || a.chunk != chunk)
                continue;
            NsBinding *binding = _engine.findBinding(rec.fn, rec.nsid);
            if (!binding)
                continue;
            const LbaMapGeometry &geom = binding->map.geometry();
            binding->map.setShared(
                static_cast<std::uint32_t>(i / geom.entriesPerRow),
                static_cast<std::uint32_t>(i % geom.entriesPerRow), false);
            return;
        }
    }
}

void
NamespaceManager::checkRefInvariants() const
{
    std::size_t reserved = 0, draining = 0, links = 0;
    for (const Pool &pool : _pools) {
        std::vector<std::uint16_t> named(pool.rows.size(), 0);
        auto count = [&named, &pool](const auto &records) {
            for (const auto &rec : records)
                for (const Allocation &a : rec.allocs)
                    if (!a.unallocated() && a.slot == pool.slot)
                        ++named[a.chunk];
        };
        count(_records);
        count(_snaps);
        for (std::size_t c = 0; c < pool.rows.size(); ++c) {
            const ChunkRow &row = pool.rows[c];
            const bool linked = !row.link.unallocated();
            const ChunkState st = row.state;
            reserved += st == ChunkState::MigratingIn;
            draining += st == ChunkState::Draining;
            links += linked && st != ChunkState::Shadow;
            // Owned rows have holders (a spilled primary is owned and
            // linked); a draining row may keep snapshot holders; free,
            // reserved and shadow rows have none, and of those only a
            // shadow is linked.
            bool fits;
            if (st == ChunkState::Owned)
                fits = row.holders > 0;
            else if (st == ChunkState::Draining)
                fits = !linked;
            else
                fits = row.holders == 0 && linked == (st == ChunkState::Shadow);
            // A spilled primary and its shadow name each other.
            const ChunkRow *other =
                linked ? findRow(row.link.slot, row.link.chunk) : nullptr;
            bool mutual = !linked || (other && other->link.slot == pool.slot &&
                                      other->link.chunk == c &&
                                      (other->state == ChunkState::Shadow) !=
                                          (st == ChunkState::Shadow));
            BMS_ASSERT(row.holders == named[c] && fits && mutual,
                       "chunk row out of sync with records and links: slot=",
                       pool.slot, " chunk=", c, " state=", int(st),
                       " holders=", row.holders, " records=", named[c],
                       " linked=", linked);
        }
    }
    // Only a running job reserves or drains (one chunk of each), and
    // it keeps its namespace locked until its source has drained.
    const std::size_t job =
        std::any_of(_records.begin(), _records.end(),
                    [](const NsRecord &r) { return r.locks > 0; });
    BMS_ASSERT(reserved <= job && draining <= job,
               "chunks reserved or draining beyond the running job: ",
               reserved, " reserved, ", draining, " draining");
    BMS_ASSERT_EQ(links, _engine.migrationGate().tierMirrorCount(),
                  "tier mirrors out of sync with spilled chunks");
    // A valid mapping entry must be marked shared iff its chunk has
    // other holders (the CoW trigger would otherwise miss or misfire).
    for (const NsRecord &rec : _records) {
        NsBinding *binding = _engine.findBinding(rec.fn, rec.nsid);
        if (!binding)
            continue;
        const LbaMapGeometry &geom = binding->map.geometry();
        for (std::size_t i = 0; i < rec.allocs.size(); ++i) {
            const Allocation &a = rec.allocs[i];
            if (a.unallocated())
                continue;
            auto row = static_cast<std::uint32_t>(i / geom.entriesPerRow);
            auto col = static_cast<std::uint32_t>(i % geom.entriesPerRow);
            if (!binding->map.entryValid(row, col))
                continue; // thin allocation mid-scrub
            const ChunkRow *r = findRow(a.slot, a.chunk);
            BMS_ASSERT(r, "record names a chunk outside every pool: slot=",
                       a.slot, " chunk=", a.chunk);
            int sharers = r->holders + (r->state == ChunkState::Draining);
            BMS_ASSERT_EQ(binding->map.entryShared(row, col), sharers > 1,
                          "shared bit out of sync with holders: fn=", rec.fn,
                          " nsid=", rec.nsid, " chunk=", i, " holders=",
                          r->holders);
        }
    }
}

std::optional<NamespaceManager::Allocation>
NamespaceManager::shadowOf(Allocation primary) const
{
    const ChunkRow *row = findRow(primary.slot, primary.chunk);
    if (!row || row->state != ChunkState::Owned || row->link.unallocated())
        return std::nullopt;
    return row->link;
}

std::vector<NamespaceManager::SpilledChunk>
NamespaceManager::spilled() const
{
    std::vector<SpilledChunk> out;
    for (const NsRecord &rec : _records) {
        for (std::size_t i = 0; i < rec.allocs.size(); ++i) {
            const Allocation &a = rec.allocs[i];
            if (auto shadow = a.unallocated() ? std::nullopt : shadowOf(a))
                out.push_back(SpilledChunk{rec.fn, rec.nsid,
                                           static_cast<std::uint32_t>(i),
                                           a.slot, a.chunk, shadow->slot,
                                           shadow->chunk});
        }
    }
    auto seq = [this](const SpilledChunk &c) {
        return findRow(c.remoteSlot, c.remoteChunk)->spillSeq;
    };
    std::sort(out.begin(), out.end(),
              [&seq](const auto &a, const auto &b) { return seq(a) < seq(b); });
    return out;
}

std::optional<std::uint8_t>
NamespaceManager::takeChunk(int slot)
{
    Pool *pool = poolFor(slot);
    return pool ? claimFree(*pool, ChunkState::MigratingIn) : std::nullopt;
}

void
NamespaceManager::releaseChunk(int slot, std::uint8_t chunk)
{
    ChunkRow &row = rowAt(slot, chunk);
    if (row.state == ChunkState::Owned) {
        dropHolder(slot, chunk);
        return;
    }
    BMS_ASSERT(row.state == ChunkState::MigratingIn ||
                   row.state == ChunkState::Draining,
               "release of a chunk no job holds: slot=", slot, " chunk=",
               chunk, " state=", int(row.state));
    // A reserved chunk has no holder; a drained one may keep snapshots.
    row.state = row.holders > 0 ? ChunkState::Owned : ChunkState::Free;
    maybeClearShared(slot, chunk);
}

void
NamespaceManager::flip(MoveKind kind, pcie::FunctionId fn,
                       std::uint32_t nsid, std::uint32_t chunk_index,
                       Allocation src, Allocation dst)
{
    NsRecord *rec = recordFor(fn, nsid);
    NsBinding *binding = _engine.findBinding(fn, nsid);
    BMS_ASSERT(rec && binding && chunk_index < rec->allocs.size() &&
                   rec->allocs[chunk_index].slot == src.slot &&
                   rec->allocs[chunk_index].chunk == src.chunk,
               "flip source is not the recorded placement: fn=", fn,
               " nsid=", nsid, " chunk=", chunk_index);
    ChunkRow &from = rowAt(src.slot, src.chunk);
    ChunkRow &to = rowAt(dst.slot, dst.chunk);
    const bool promote = kind == MoveKind::Promote;
    BMS_ASSERT(from.state == ChunkState::Owned &&
                   (promote ? to.state == ChunkState::Shadow &&
                                  from.link.slot == dst.slot &&
                                  from.link.chunk == dst.chunk
                            : to.state == ChunkState::MigratingIn &&
                                  from.link.unallocated()),
               "flip between chunks the job does not hold: ", src.slot, ":",
               src.chunk, " -> ", dst.slot, ":", dst.chunk);

    // The atomic one-byte flip of Fig. 4(a): every later translate
    // resolves to the destination chunk.
    const LbaMapGeometry &geom = binding->map.geometry();
    bool flipped = binding->map.setEntry(chunk_index / geom.entriesPerRow,
                                         chunk_index % geom.entriesPerRow,
                                         dst.chunk, dst.slot);
    BMS_ASSERT(flipped, "map flip rejected: fn=", fn, " nsid=", nsid,
               " chunk=", chunk_index);
    rec->allocs[chunk_index] = dst;
    --from.holders;
    to = ChunkRow{ChunkState::Owned, 1};
    MigrationGate &gate = _engine.migrationGate();
    if (kind == MoveKind::Spill) {
        // Every later write to the remote primary also lands on the
        // shadow: the gate's strict mirror keeps it a recovery image.
        from = ChunkRow{ChunkState::Shadow, 0, dst};
        to.link = src;
        to.spillSeq = ++_spillSeq;
        gate.setTierMirror(dst.slot, dst.chunk, src.slot, src.chunk);
        return;
    }
    if (promote)
        gate.clearTierMirror(src.slot, src.chunk);
    // Pre-flip commands may still run on the source; the job releases
    // it once they drain.
    from = ChunkRow{ChunkState::Draining, from.holders};
}

bool
NamespaceManager::lockNs(pcie::FunctionId fn, std::uint32_t nsid)
{
    for (NsRecord &rec : _records) {
        if (rec.fn == fn && rec.nsid == nsid) {
            ++rec.locks;
            return true;
        }
    }
    return false;
}

void
NamespaceManager::unlockNs(pcie::FunctionId fn, std::uint32_t nsid)
{
    for (NsRecord &rec : _records) {
        if (rec.fn == fn && rec.nsid == nsid) {
            BMS_ASSERT(rec.locks > 0, "unlock of unlocked namespace fn=",
                       fn, " nsid=", nsid);
            --rec.locks;
            return;
        }
    }
    BMS_PANIC("unlock of unknown namespace fn=", fn, " nsid=", nsid);
}

bool
NamespaceManager::locked(pcie::FunctionId fn, std::uint32_t nsid) const
{
    for (const NsRecord &rec : _records)
        if (rec.fn == fn && rec.nsid == nsid)
            return rec.locks > 0;
    return false;
}

void
NamespaceManager::quiesceAcquire(int slot)
{
    Pool *pool = poolFor(slot);
    BMS_ASSERT(pool, "quiesce of unknown slot ", slot);
    ++pool->quiesce;
}

void
NamespaceManager::quiesceRelease(int slot)
{
    Pool *pool = poolFor(slot);
    BMS_ASSERT(pool && pool->quiesce > 0,
               "quiesce release of unquiesced slot ", slot);
    --pool->quiesce;
}

bool
NamespaceManager::quiesced(int slot) const
{
    const Pool *pool = poolFor(slot);
    return pool && pool->quiesce > 0;
}

} // namespace bms::core
