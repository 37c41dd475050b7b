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
/** Tier moves retry less: the remote transport already retries each
 *  I/O internally, and a write held behind a fenced segment waits out
 *  every retry — against a dead node that is ~750 ms per attempt, so
 *  16 of them would stall tenants past the transparency budget. */
constexpr int kTierSegmentRetries = 2;
constexpr sim::Tick kRetryDelay = sim::microseconds(200);
/** Poll period while a hot upgrade holds either end of a copy. */
constexpr sim::Tick kUpgradePollDelay = sim::milliseconds(1);
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
                          std::function<void(Report)> done, Options opts)
{
    if (dst_slot != kAutoSlot &&
        (dst_slot < 0 || dst_slot >= _engine.ssdSlots())) {
        return false;
    }
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
    // Every refusal comes before the job reserves or locks anything.
    logWarn("migration #", j.id, " rejected: ", why, " (fn=", j.fn,
            " nsid=", j.nsid, " chunk=", j.chunkIndex, ")");
    ++_rejected;
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
    const MoveKind kind = j.opts.kind;
    // Only a promote moves a spilled chunk: any other move would
    // strand the armed strict mirror and stale the shadow the loss
    // recovery depends on.
    auto shadow = _ns.shadowOf(*alloc);
    if (shadow.has_value() != (kind == MoveKind::Promote)) {
        failBeforeCopy(shadow ? "source chunk is tier-spilled (promote it "
                                "instead)"
                              : "promote of a chunk that is not spilled");
        return;
    }
    if (kind != MoveKind::Cow && _ns.locked(j.fn, j.nsid)) {
        // A chunk operation (allocation scrub, CoW, trim) pins the
        // namespace; moving chunks under it would race the scrub.
        failBeforeCopy("namespace busy with a chunk operation");
        return;
    }
    j.srcSlot = alloc->slot;
    j.srcChunk = alloc->chunk;
    const LbaMapGeometry &geom = binding->map.geometry();
    j.chunkBlocks = geom.chunkBlocks;
    // The namespace record and the mapping table must agree on where
    // the chunk lives — verify through the translation path.
    auto mapping =
        binding->map.translate(std::uint64_t(j.chunkIndex) * j.chunkBlocks);
    if (!mapping || mapping->ssdId != j.srcSlot ||
        mapping->physLba != std::uint64_t(j.srcChunk) * j.chunkBlocks) {
        failBeforeCopy("record/table placement mismatch");
        return;
    }
    if (kind != MoveKind::Cow &&
        binding->map.entryShared(j.chunkIndex / geom.entriesPerRow,
                                 j.chunkIndex % geom.entriesPerRow)) {
        // A snapshot pins the source chunk; a generic move would
        // either strand the pinned image or double-place the chunk.
        // Only the chunk-CoW path copies off a shared entry.
        failBeforeCopy("source chunk is snapshot-shared (chunk CoW only)");
        return;
    }

    // CoW may land on the source's own slot — it separates ownership,
    // not placement — so only the other kinds exclude it. A promote
    // lands on the shadow.
    int dst = j.dstSlot;
    if (shadow)
        dst = shadow->slot;
    else if (dst == kAutoSlot)
        dst = pickDestination(kind == MoveKind::Cow ? -1 : j.srcSlot);
    if (dst < 0 || (dst == j.srcSlot && kind != MoveKind::Cow) ||
        dst >= _engine.ssdSlots()) {
        failBeforeCopy("no usable destination slot");
        return;
    }
    if (!_engine.adaptor(dst).ready() ||
        !_engine.adaptor(j.srcSlot).ready()) {
        failBeforeCopy("source or destination adaptor not ready");
        return;
    }
    // The shadow is the tier's already; nothing to reserve.
    auto dchunk = shadow ? std::optional(shadow->chunk) : _ns.takeChunk(dst);
    if (!dchunk) {
        failBeforeCopy("destination has no free chunk");
        return;
    }
    j.dSlot = static_cast<std::uint8_t>(dst);
    j.dChunk = *dchunk;
    bool locked = _ns.lockNs(j.fn, j.nsid);
    BMS_ASSERT(locked, "namespace vanished between lookup and lock");

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
    if (upgrading(j.srcSlot) || upgrading(j.dSlot)) {
        schedule(kUpgradePollDelay, [this] { copyLoop(); });
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
        if (!endsReady()) {
            abortCurrent("adaptor not ready (disk pulled)");
            return;
        }
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
    if (!endsReady()) {
        abortCurrent("adaptor not ready (disk pulled)");
        return;
    }
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

bool
MigrationManager::endsReady() const
{
    const Job &j = *_current;
    return _engine.adaptor(j.srcSlot).ready() &&
           _engine.adaptor(j.dSlot).ready();
}

void
MigrationManager::segmentFailed(std::uint32_t seg, int attempt,
                                const char *leg)
{
    Job &j = *_current;
    ++_segmentRetries;
    int max_retries = j.opts.kind == MoveKind::Spill ||
                              j.opts.kind == MoveKind::Promote
                          ? kTierSegmentRetries
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
    // The map flip, the record and both rows, and the tier mirror
    // change in this one instant; the source is the one this job
    // copied from.
    _ns.flip(j.opts.kind, j.fn, j.nsid, j.chunkIndex,
             {j.srcSlot, j.srcChunk}, {j.dSlot, j.dChunk});
    gate.closeMigration(/*flipped=*/true);
    if (j.opts.kind == MoveKind::Spill) {
        // The source chunk stays allocated (it is now the shadow
        // copy); in-flight pre-cutover reads against it are harmless.
        logInfo("migration #", j.id, " done (source kept): ",
                j.bytesCopied, " bytes copied");
        finishCurrent(true);
        return;
    }
    // The source ends its drain (back to the pool, or to the
    // snapshots still holding it) only once the last pre-cutover
    // command that translated onto it has completed.
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
    _engine.migrationGate().closeMigration(/*flipped=*/false);
    // In-flight mirror legs still target the destination chunk; free
    // it only once they have landed (a promote's shadow stays).
    _engine.migrationGate().whenChunkIdle(j.dSlot, j.dChunk, [this] {
        Job &j = *_current;
        if (j.opts.kind != MoveKind::Promote)
            _ns.releaseChunk(j.dSlot, j.dChunk);
        finishCurrent(false);
    });
}

void
MigrationManager::finishCurrent(bool ok)
{
    Job &j = *_current;
    // A started job locked its namespace just before it began copying.
    bool started = j.state != MigrationState::Queued;
    j.state = ok ? MigrationState::Done : MigrationState::Aborted;
    if (started) {
        _ns.unlockNs(j.fn, j.nsid);
        ok ? ++_completed : ++_aborted;
    }
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
             _monitor.slotMbps(s) < _monitor.slotMbps(best))) {
            best = s;
            best_free = free;
        }
    }
    return best;
}

void
MigrationManager::evacuate(int slot, std::function<void(EvacReport)> done)
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
        sim::Tick t0 = 0;
        std::size_t remaining = 0;
        std::uint32_t moved = 0, failed = 0;
        std::function<void(EvacReport)> done;
    };
    auto st = std::make_shared<EvacState>();
    st->slot = slot;
    st->t0 = now();
    st->done = std::move(done);

    auto finish = [this, st] {
        EvacReport rep;
        // The chunk list came from namespace records only; a chunk
        // copied in meanwhile, a tier shadow or a snapshot-only chunk
        // still holds the pool, and the disk holds its bytes.
        rep.ok = st->failed == 0 &&
                 _ns.freeChunks(st->slot) == _ns.totalChunks(st->slot);
        rep.moved = st->moved;
        rep.failed = st->failed;
        rep.elapsed = now() - st->t0;
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
             _monitor.slotMbps(o.slot) > _monitor.slotMbps(src->slot))) {
            src = &o;
        }
        if (!dst || o.free > dst->free ||
            (o.free == dst->free &&
             _monitor.slotMbps(o.slot) < _monitor.slotMbps(dst->slot))) {
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
