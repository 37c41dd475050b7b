#include "core/ctrl/migration/migration_manager.hh"

#include <algorithm>
#include <utility>

#include "sim/check.hh"

namespace bms::core {

namespace {

/** Copy granularity (the staging buffer's size). */
constexpr std::uint64_t kSegmentBytes = sim::mib(1);
static_assert(kSegmentBytes % nvme::kBlockSize == 0 &&
                  kSegmentBytes <= 512 * nvme::kPageSize,
              "a segment is whole blocks within one PRP list page");
/** Per-segment copy retries before the migration aborts. */
constexpr int kMaxSegmentRetries = 16;
constexpr sim::Tick kRetryDelay = sim::microseconds(200);
/** Poll period while a slot is busy (hot-upgrade in progress). */
constexpr sim::Tick kBusyPollDelay = sim::milliseconds(1);
/** Abort after kCopyFactorCap * segments + 16 segment copies (mirror
 *  failures re-queue segments; this bounds livelock). */
constexpr std::uint64_t kCopyFactorCap = 4;

} // namespace

MigrationManager::MigrationManager(sim::Simulator &sim, std::string name,
                                   BmsEngine &engine, NamespaceManager &ns,
                                   IoMonitor &monitor)
    : SimObject(sim, std::move(name)), _engine(engine), _ns(ns),
      _budgetMbps(400.0), _monitor(monitor),
      _qosKey(QosModule::key(0xFE, 1))
{
    _engine.qos().setLimits(_qosKey, QosLimits{0.0, _budgetMbps});

    registerStat("started", [this] { return double(_started); });
    registerStat("completed", [this] { return double(_completed); });
    registerStat("aborted", [this] { return double(_aborted); });
    registerStat("bytesCopied", [this] { return double(_bytesCopied); });
}

void
MigrationManager::setBudget(double mbps)
{
    _budgetMbps = mbps;
    _engine.qos().setLimits(
        _qosKey, mbps > 0 ? QosLimits{0.0, mbps} : QosLimits{});
}

void
MigrationManager::ensureBuffers()
{
    if (_buf != 0)
        return;
    _buf = _engine.chipMemory().alloc(kSegmentBytes, nvme::kPageSize);
    std::uint64_t pages =
        (kSegmentBytes + nvme::kPageSize - 1) / nvme::kPageSize;
    if (pages > 2) {
        // The staging buffer never moves, so the PRP list is built
        // once for the largest segment; short tails read a prefix.
        std::vector<std::uint64_t> entries;
        entries.reserve(pages - 1);
        for (std::uint64_t p = 1; p < pages; ++p)
            entries.push_back(_buf + p * nvme::kPageSize);
        _list = _engine.chipMemory().alloc(entries.size() * 8, 8);
        _engine.chipMemory().write(
            _list, static_cast<std::uint32_t>(entries.size() * 8),
            reinterpret_cast<const std::uint8_t *>(entries.data()));
    }
}

void
MigrationManager::setPrps(nvme::Sqe &sqe, std::uint64_t bytes) const
{
    std::uint64_t pages = (bytes + nvme::kPageSize - 1) / nvme::kPageSize;
    sqe.prp1 = _buf;
    if (pages <= 1)
        sqe.prp2 = 0;
    else if (pages == 2)
        sqe.prp2 = _buf + nvme::kPageSize;
    else
        sqe.prp2 = _list;
}

bool
MigrationManager::migrate(pcie::FunctionId fn, std::uint32_t nsid,
                          std::uint32_t chunk_index, int dst_slot,
                          std::function<void(Report)> done)
{
    return migrate(fn, nsid, chunk_index, dst_slot, Options(),
                   std::move(done));
}

bool
MigrationManager::migrate(pcie::FunctionId fn, std::uint32_t nsid,
                          std::uint32_t chunk_index, int dst_slot,
                          Options opts, std::function<void(Report)> done)
{
    if (dst_slot != kAutoSlot &&
        (dst_slot < 0 || dst_slot >= _engine.ssdSlots())) {
        return false;
    }
    if (opts.pinnedDstChunk >= 0 && dst_slot == kAutoSlot)
        return false; // a pinned chunk only makes sense on a known slot
    Job j;
    j.id = _nextId++;
    j.fn = fn;
    j.nsid = nsid;
    j.chunkIndex = chunk_index;
    j.dstSlot = dst_slot;
    j.opts = std::move(opts);
    j.done = std::move(done);
    _queue.push_back(std::move(j));
    startNext();
    return true;
}

void
MigrationManager::failBeforeCopy(const char *why)
{
    Job &j = *_current;
    logWarn("migration #", j.id, " rejected: ", why, " (fn=", j.fn,
            " nsid=", j.nsid, " chunk=", j.chunkIndex, ")");
    ++_rejected;
    if (j.dstTaken)
        _ns.releaseChunk(j.dSlot, j.dChunk);
    if (j.nsLocked)
        _ns.unlockNs(j.fn, j.nsid);
    j.nsLocked = false;
    j.dstTaken = false;
    finishCurrent(false);
}

void
MigrationManager::startNext()
{
    if (_current || _queue.empty())
        return;
    _current = std::move(_queue.front());
    _queue.pop_front();
    Job &j = *_current;
    j.startedAt = now();

    auto alloc = _ns.chunkAt(j.fn, j.nsid, j.chunkIndex);
    NsBinding *binding = _engine.findBinding(j.fn, j.nsid);
    if (!alloc || !binding) {
        failBeforeCopy("unknown namespace chunk");
        return;
    }
    if (!j.opts.allowTieredSource &&
        _tierGuard(j.fn, j.nsid, j.chunkIndex)) {
        failBeforeCopy("source chunk is tier-spilled (promote it instead)");
        return;
    }
    if (!j.opts.cowSource && _ns.locked(j.fn, j.nsid)) {
        // A chunk operation (allocation scrub, CoW, trim) pins the
        // namespace; moving chunks under it would race the scrub.
        failBeforeCopy("namespace busy with a chunk operation");
        return;
    }
    j.srcSlot = alloc->slot;
    j.srcChunk = alloc->chunk;
    const LbaMapGeometry &geom = binding->map.geometry();
    j.chunkBlocks = geom.chunkBlocks;
    j.row = j.chunkIndex / geom.entriesPerRow;
    j.col = j.chunkIndex % geom.entriesPerRow;
    // The namespace record and the mapping table must agree on where
    // the chunk lives — verify through the translation path.
    auto mapping =
        binding->map.translate(std::uint64_t(j.chunkIndex) * j.chunkBlocks);
    if (!mapping || mapping->ssdId != j.srcSlot ||
        mapping->physLba != std::uint64_t(j.srcChunk) * j.chunkBlocks) {
        failBeforeCopy("record/table placement mismatch");
        return;
    }
    if (!j.opts.cowSource && binding->map.entryShared(j.row, j.col)) {
        // A snapshot pins the source chunk; a generic move would
        // either strand the pinned image or double-place the chunk.
        // Only the chunk-CoW path copies off a shared entry.
        failBeforeCopy("source chunk is snapshot-shared (chunk CoW only)");
        return;
    }

    // CoW may land on the source's own slot — it separates ownership,
    // not placement — so only generic moves exclude it.
    int dst = j.dstSlot == kAutoSlot
                  ? pickDestination(j.opts.cowSource ? -1 : j.srcSlot)
                  : j.dstSlot;
    if (dst < 0 || (dst == j.srcSlot && !j.opts.cowSource) ||
        dst >= _engine.ssdSlots()) {
        failBeforeCopy("no usable destination slot");
        return;
    }
    if (!_engine.adaptor(dst).ready() ||
        !_engine.adaptor(j.srcSlot).ready()) {
        failBeforeCopy("source or destination adaptor not ready");
        return;
    }
    if (j.opts.pinnedDstChunk >= 0) {
        // The caller owns the destination chunk already (a tier
        // shadow); it never entered the free pool, so nothing to
        // reserve or release.
        if (static_cast<std::uint64_t>(j.opts.pinnedDstChunk) >=
            _ns.totalChunks(dst)) {
            failBeforeCopy("pinned destination chunk out of range");
            return;
        }
        j.dSlot = static_cast<std::uint8_t>(dst);
        j.dChunk = static_cast<std::uint8_t>(j.opts.pinnedDstChunk);
        j.dstTaken = false;
    } else {
        auto dchunk = _ns.takeChunk(dst);
        if (!dchunk) {
            failBeforeCopy("destination has no free chunk");
            return;
        }
        j.dSlot = static_cast<std::uint8_t>(dst);
        j.dChunk = *dchunk;
        j.dstTaken = true;
    }
    bool locked = _ns.lockNs(j.fn, j.nsid);
    BMS_ASSERT(locked, "namespace vanished between lookup and lock");
    j.nsLocked = true;

    std::uint64_t seg_bytes = kSegmentBytes;
    if (j.opts.segmentBytes > 0) {
        // The staging buffer holds kSegmentBytes, so a per-job
        // override may only shrink the segment.
        seg_bytes = std::max<std::uint64_t>(
            nvme::kBlockSize,
            std::min<std::uint64_t>(j.opts.segmentBytes,
                                    kSegmentBytes));
        seg_bytes -= seg_bytes % nvme::kBlockSize;
    }
    j.segBlocks = seg_bytes / nvme::kBlockSize;
    j.numSegs = static_cast<std::uint32_t>(
        (j.chunkBlocks + j.segBlocks - 1) / j.segBlocks);
    ensureBuffers();
    _engine.migrationGate().open(j.srcSlot, j.srcChunk, j.dSlot, j.dChunk,
                                 j.chunkBlocks, j.segBlocks);
    j.opened = true;
    j.state = MigrationState::Copying;
    ++_started;
    logInfo("migration #", j.id, ": fn=", j.fn, " nsid=", j.nsid,
            " chunk=", j.chunkIndex, " (", int(j.srcSlot), ":",
            int(j.srcChunk), ") -> (", int(j.dSlot), ":", int(j.dChunk),
            "), ", j.numSegs, " segments");
    copyLoop();
}

void
MigrationManager::copyLoop()
{
    Job &j = *_current;
    // Yield to a hot upgrade on either end: its store-context drain
    // must not race a fresh copy segment.
    if (slotBusy(j.srcSlot) || slotBusy(j.dSlot)) {
        schedule(kBusyPollDelay, [this] { copyLoop(); });
        return;
    }
    if (j.copies > kCopyFactorCap * j.numSegs + 16) {
        abortCurrent("segment copy cap exceeded (dirty livelock)");
        return;
    }
    bool more = _engine.migrationGate().fenceNextSegment(
        [this](std::uint32_t seg) { copySegment(seg, 0); });
    if (!more)
        cutover();
}

void
MigrationManager::copySegment(std::uint32_t seg, int attempt)
{
    Job &j = *_current;
    std::uint64_t off_blocks = std::uint64_t(seg) * j.segBlocks;
    auto blocks = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(j.segBlocks, j.chunkBlocks - off_blocks));
    std::uint64_t bytes = std::uint64_t(blocks) * nvme::kBlockSize;

    auto go = [this, seg, attempt, blocks, bytes] {
        Job &j = *_current;
        nvme::Sqe rd;
        rd.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
        rd.nsid = 1;
        rd.setSlba(std::uint64_t(j.srcChunk) * j.chunkBlocks +
                   std::uint64_t(seg) * j.segBlocks);
        rd.setNlb(blocks);
        setPrps(rd, bytes);
        _engine.adaptor(j.srcSlot).submitIo(
            rd, [this, seg, attempt, blocks,
                 bytes](const nvme::Cqe &cqe) {
                if (!cqe.ok()) {
                    segmentFailed(seg, attempt, "read");
                    return;
                }
                writeSegment(seg, attempt, blocks, bytes);
            });
    };
    // The copy read is the paced leg: one QoS charge per segment.
    if (_budgetMbps > 0)
        _engine.qos().submit(_qosKey, bytes, go);
    else
        go();
}

void
MigrationManager::writeSegment(std::uint32_t seg, int attempt,
                               std::uint32_t blocks, std::uint64_t bytes)
{
    Job &j = *_current;
    nvme::Sqe wr;
    wr.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Write);
    wr.nsid = 1;
    wr.setSlba(std::uint64_t(j.dChunk) * j.chunkBlocks +
               std::uint64_t(seg) * j.segBlocks);
    wr.setNlb(blocks);
    setPrps(wr, bytes);
    _engine.adaptor(j.dSlot).submitIo(
        wr, [this, seg, attempt, bytes](const nvme::Cqe &cqe) {
            if (!cqe.ok()) {
                segmentFailed(seg, attempt, "write");
                return;
            }
            Job &j = *_current;
            j.bytesCopied += bytes;
            ++j.copiedSegs;
            ++j.copies;
            _engine.migrationGate().segmentCopied(seg);
            copyLoop();
        });
}

void
MigrationManager::segmentFailed(std::uint32_t seg, int attempt,
                                const char *leg)
{
    Job &j = *_current;
    ++_segmentRetries;
    int max_retries = j.opts.maxSegmentRetries >= 0
                          ? j.opts.maxSegmentRetries
                          : kMaxSegmentRetries;
    if (attempt + 1 >= max_retries) {
        logWarn("migration #", j.id, ": segment ", seg, " ", leg,
                " failed after ", attempt + 1, " attempts");
        abortCurrent("segment copy retries exhausted");
        return;
    }
    // The fence stays open across the retry; held writes wait with it.
    schedule(kRetryDelay,
             [this, seg, attempt] { copySegment(seg, attempt + 1); });
}

void
MigrationManager::cutover()
{
    Job &j = *_current;
    j.state = MigrationState::CuttingOver;
    MigrationGate &gate = _engine.migrationGate();
    BMS_ASSERT_EQ(gate.heldCount(), std::size_t(0),
                  "cutover with held writes");
    NsBinding *binding = _engine.findBinding(j.fn, j.nsid);
    BMS_ASSERT(binding, "binding vanished during migration (ns locked)");
    // Tier bookkeeping (arming/clearing the shadow mirror) happens in
    // the same instant as the flip, so no write can observe one
    // without the other.
    if (j.opts.beforeCutover)
        j.opts.beforeCutover(j.dSlot, j.dChunk);
    // The atomic one-byte flip of Fig. 4(a): every later translate
    // resolves to the destination chunk.
    bool flipped = binding->map.setEntry(j.row, j.col, j.dChunk, j.dSlot);
    BMS_ASSERT(flipped, "cutover map flip rejected at row=", j.row,
               " col=", j.col);
    bool moved = _ns.recordMove(j.fn, j.nsid, j.chunkIndex, j.dSlot,
                                j.dChunk);
    BMS_ASSERT(moved, "namespace record lost during migration");
    gate.closeMigration();
    if (j.opts.keepSource) {
        // The source chunk stays allocated (it is now the shadow
        // copy); in-flight pre-cutover reads against it are harmless.
        logInfo("migration #", j.id, " done (source kept): ",
                j.bytesCopied, " bytes copied");
        finishCurrent(true);
        return;
    }
    // The source chunk returns to the free pool only once the last
    // pre-cutover command that translated onto it has completed.
    gate.whenChunkIdle(j.srcSlot, j.srcChunk, [this] {
        Job &j = *_current;
        _ns.releaseChunk(j.srcSlot, j.srcChunk);
        logInfo("migration #", j.id, " done: ", j.bytesCopied,
                " bytes copied");
        finishCurrent(true);
    });
}

void
MigrationManager::abortCurrent(const char *why)
{
    Job &j = *_current;
    logWarn("migration #", j.id, " aborted: ", why);
    if (j.opened)
        _engine.migrationGate().closeMigration();
    // In-flight mirror legs still target the destination chunk; free
    // it only once they have landed.
    _engine.migrationGate().whenChunkIdle(j.dSlot, j.dChunk, [this] {
        Job &j = *_current;
        if (j.dstTaken) {
            _ns.releaseChunk(j.dSlot, j.dChunk);
            j.dstTaken = false;
        }
        finishCurrent(false);
    });
}

void
MigrationManager::finishCurrent(bool ok)
{
    Job &j = *_current;
    bool started = j.state != MigrationState::Queued;
    j.state = ok ? MigrationState::Done : MigrationState::Aborted;
    if (j.nsLocked) {
        _ns.unlockNs(j.fn, j.nsid);
        j.nsLocked = false;
    }
    if (started)
        ok ? ++_completed : ++_aborted;
    _bytesCopied += j.bytesCopied;

    Report rep;
    rep.ok = ok;
    rep.id = j.id;
    rep.srcSlot = j.srcSlot;
    rep.dstSlot = j.dSlot;
    rep.srcChunk = j.srcChunk;
    rep.dstChunk = j.dChunk;
    rep.elapsed = now() - j.startedAt;
    rep.bytesCopied = j.bytesCopied;

    _history.push_back(snapshot(j));
    while (_history.size() > 8)
        _history.pop_front();

    auto done = std::move(j.done);
    _current.reset();
    if (done)
        done(rep);
    startNext();
}

int
MigrationManager::pickDestination(int src_slot) const
{
    int best = -1;
    std::uint64_t best_free = 0;
    for (int s = 0; s < _engine.ssdSlots(); ++s) {
        // Remote slots never receive capacity placement — only the
        // tiering manager spills onto them deliberately.
        if (s == src_slot || _ns.quiesced(s) || _engine.isRemoteSlot(s))
            continue;
        std::uint64_t free = _ns.freeChunks(s);
        if (free == 0)
            continue;
        if (best < 0 || free > best_free ||
            (free == best_free &&
             slotLoadMbps(s) < slotLoadMbps(best))) {
            best = s;
            best_free = free;
        }
    }
    return best;
}

double
MigrationManager::slotLoadMbps(int slot) const
{
    return _monitor.slotMbps(slot);
}

void
MigrationManager::evacuate(int slot, std::function<void(EvacReport)> done,
                           bool keep_quiesced)
{
    if (slot < 0 || slot >= _engine.ssdSlots()) {
        schedule(0, [done = std::move(done)] { done(EvacReport{}); });
        return;
    }
    ++_evacuations;
    _ns.quiesceAcquire(slot);

    struct EvacState
    {
        int slot = 0;
        bool keep = false;
        sim::Tick t0 = 0;
        std::size_t remaining = 0;
        std::uint32_t moved = 0, failed = 0;
        std::function<void(EvacReport)> done;
    };
    auto st = std::make_shared<EvacState>();
    st->slot = slot;
    st->keep = keep_quiesced;
    st->t0 = now();
    st->done = std::move(done);

    auto finish = [this, st] {
        EvacReport rep;
        rep.ok = st->failed == 0;
        rep.moved = st->moved;
        rep.failed = st->failed;
        rep.elapsed = now() - st->t0;
        if (!(st->keep && rep.ok))
            _ns.quiesceRelease(st->slot);
        st->done(rep);
    };

    auto chunks = _ns.chunksOn(slot);
    logInfo("evacuating slot ", slot, ": ", chunks.size(), " chunks");
    if (chunks.empty()) {
        schedule(0, finish);
        return;
    }
    st->remaining = chunks.size();
    for (const auto &c : chunks) {
        bool accepted =
            migrate(c.fn, c.nsid, c.chunkIndex, kAutoSlot,
                    [st, finish](Report r) {
                        r.ok ? ++st->moved : ++st->failed;
                        if (--st->remaining == 0)
                            finish();
                    });
        if (!accepted) {
            ++st->failed;
            if (--st->remaining == 0)
                schedule(0, finish);
        }
    }
}

bool
MigrationManager::rebalanceOnce(std::function<void(Report)> done)
{
    auto occ = _ns.occupancy();
    const NamespaceManager::Occupancy *src = nullptr;
    const NamespaceManager::Occupancy *dst = nullptr;
    for (const auto &o : occ) {
        if (o.quiesced || o.remote || o.total == 0)
            continue;
        if (!src || o.used > src->used ||
            (o.used == src->used &&
             slotLoadMbps(o.slot) > slotLoadMbps(src->slot))) {
            src = &o;
        }
        if (!dst || o.free > dst->free ||
            (o.free == dst->free &&
             slotLoadMbps(o.slot) < slotLoadMbps(dst->slot))) {
            dst = &o;
        }
    }
    if (!src || !dst || src->slot == dst->slot || dst->free == 0)
        return false;
    if (src->used <= dst->used + 1)
        return false; // occupancy spread of one chunk is balanced
    auto chunks = _ns.chunksOn(src->slot);
    if (chunks.empty())
        return false;
    const auto &c = chunks.front();
    return migrate(c.fn, c.nsid, c.chunkIndex, dst->slot, std::move(done));
}

MiMigrationInfo
MigrationManager::snapshot(const Job &j) const
{
    MiMigrationInfo s;
    s.id = j.id;
    s.fn = static_cast<std::uint8_t>(j.fn);
    s.nsid = j.nsid;
    s.chunkIndex = j.chunkIndex;
    s.srcSlot = j.srcSlot;
    s.srcChunk = j.srcChunk;
    s.dstSlot = j.dSlot;
    s.dstChunk = j.dChunk;
    s.state = j.state;
    s.copiedSegments = j.copiedSegs;
    s.totalSegments = j.numSegs;
    s.bytesCopied = j.bytesCopied;
    return s;
}

std::vector<MiMigrationInfo>
MigrationManager::status() const
{
    std::vector<MiMigrationInfo> out;
    if (_current)
        out.push_back(snapshot(*_current));
    for (const Job &j : _queue)
        out.push_back(snapshot(j));
    for (auto it = _history.rbegin(); it != _history.rend(); ++it)
        out.push_back(*it);
    return out;
}

} // namespace bms::core
