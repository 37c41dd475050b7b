#include "core/engine/target_controller.hh"

#include <algorithm>
#include <bitset>
#include <utility>

#include "core/engine/bms_engine.hh"
#include "core/engine/global_prp.hh"
#include "nvme/prp.hh"

namespace bms::core {

using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Zero source page for unallocated-chunk read fills. */
constexpr std::uint8_t kZeroPage[nvme::kPageSize] = {};

/** Poll period while a deallocate waits out a migration copier. */
constexpr sim::Tick kTrimRetryDelay = sim::microseconds(200);

/** WriteZeroes NLB is a 16-bit 0-based field: 65536 blocks per command. */
constexpr std::uint64_t kMaxZeroBlocks = 0x10000;

/** Poll period / budget while a scrub waits for a not-ready adaptor
 *  (a hot-plug swap empties the slot for about a second, never
 *  minutes). */
constexpr sim::Tick kScrubReadyPoll = sim::milliseconds(1);
constexpr sim::Tick kScrubReadyWait = sim::seconds(20);

} // namespace

TargetController::TargetController(sim::Simulator &sim, std::string name,
                                   BmsEngine &engine)
    : SimObject(sim, std::move(name)), _engine(engine)
{
    registerStat("forwarded", [this] { return double(_forwarded); });
    registerStat("split", [this] { return double(_split); });
    registerStat("prpListsRewritten",
                 [this] { return double(_listsRewritten); });
    registerStat("errors", [this] { return double(_errors); });
    registerStat("zeroFillReads", [this] { return double(_zeroFill); });
    registerStat("dsmCommands", [this] { return double(_dsmCommands); });
    registerStat("trimmedChunks", [this] { return double(_trimmedChunks); });
    registerStat("allocatedOnWrite",
                 [this] { return double(_allocOnWrite); });
    registerStat("cowTriggers", [this] { return double(_cowTriggers); });
}

const Sqe &
TargetController::sqeOf(const Cmd &c)
{
    return c.fn->sqe(c.front);
}

NsBinding *
TargetController::bindingOf(const Cmd &c)
{
    return _engine.findBinding(c.fn->functionId(), sqeOf(c).nsid);
}

void
TargetController::post(Handle h, Status st)
{
    // complete() may accept a new command into the freed record; its
    // arguments are copied before it runs.
    FrontFunction &fn = *_cmds[h].fn;
    const nvme::ControllerModel::Handle front = _cmds[h].front;
    _cmds.free(h);
    fn.complete(front, st);
}

void
TargetController::fail(Handle h, Status st)
{
    ++_errors;
    post(h, st);
}

void
TargetController::completeAfterPipeline(Handle h, Status st)
{
    if (st != Status::Success)
        ++_errors;
    _cmds[h].worst = st;
    schedule(_engine.config().completionPipelineDelay,
             [this, h] { post(h, _cmds[h].worst); });
}

void
TargetController::handleIo(FrontFunction &fn,
                           nvme::ControllerModel::Handle front)
{
    const Handle h = _cmds.open();
    Cmd &c = _cmds[h];
    c.fn = &fn;
    c.front = front;
    c.worst = Status::Success;
    c.mirrorOk = true;
    const Sqe &sqe = fn.sqe(front);
    NsBinding *binding = bindingOf(c);
    if (!binding) {
        fail(h, Status::InvalidNamespace);
        return;
    }
    auto op = static_cast<IoOpcode>(sqe.opcode);
    if (op == IoOpcode::Flush) {
        forwardFlush(h, *binding);
        return;
    }
    if (op == IoOpcode::Dsm) {
        // Negligible transfer (one range page); bypasses QoS.
        handleDsm(h);
        return;
    }
    if (op != IoOpcode::Read && op != IoOpcode::Write) {
        fail(h, Status::InvalidOpcode);
        return;
    }
    if (sqe.slba() + sqe.nlb() > binding->info.sizeBlocks) {
        fail(h, Status::LbaOutOfRange);
        return;
    }
    // Step ②: QoS threshold check; buffered commands re-enter here
    // from the command dispatcher.
    _engine.qos().submit(binding->key(), sqe.dataBytes(),
                         [this, h] { forward(h); });
}

void
TargetController::resume(Handle h, Status st)
{
    const bool dsm =
        static_cast<IoOpcode>(sqeOf(_cmds[h]).opcode) == IoOpcode::Dsm;
    if (st == Status::Success)
        dsm ? trimChunk(h) : forward(h);
    else
        dsm ? dsmChunkDone(h, st) : fail(h, st);
}

TargetController::ChunkOp &
TargetController::openChunkOp(std::uint64_t key, OpKind kind,
                              pcie::FunctionId fn_id, std::uint32_t nsid)
{
    BMS_ASSERT(!_chunkOps.count(key),
               "chunk op already open for key ", key);
    ChunkOp op;
    op.kind = kind;
    op.fn = fn_id;
    op.nsid = nsid;
    auto [it, inserted] = _chunkOps.emplace(key, std::move(op));
    (void)inserted;
    // Pin the namespace so destroy/snapshot/generic migration wait
    // out the chunk operation.
    _nsRefHook(fn_id, nsid, true);
    return it->second;
}

void
TargetController::finishChunkOp(std::uint64_t key, Status st)
{
    auto it = _chunkOps.find(key);
    BMS_ASSERT(it != _chunkOps.end(),
               "finishing an unknown chunk op, key ", key);
    ChunkOp op = std::move(it->second);
    _chunkOps.erase(it);
    _nsRefHook(op.fn, op.nsid, false);
    for (Handle w : op.waiters)
        resume(w, st);
}

bool
TargetController::classifyChunks(Handle h, NsBinding &binding)
{
    const Sqe &sqe = sqeOf(_cmds[h]);
    const bool is_write =
        static_cast<IoOpcode>(sqe.opcode) == IoOpcode::Write;
    const LbaMapGeometry &g = binding.map.geometry();
    const std::uint64_t first = sqe.slba() / g.chunkBlocks;
    const std::uint64_t last =
        (sqe.slba() + sqe.nlb() - 1) / g.chunkBlocks;
    for (std::uint64_t ci = first; ci <= last; ++ci) {
        const std::uint64_t key =
            heatKey(binding.key(), static_cast<std::uint32_t>(ci));
        auto it = _chunkOps.find(key);
        if (it != _chunkOps.end()) {
            // Reads flow during Alloc (they zero-fill off the still-
            // invalid entry) and during Cow (the source stays
            // authoritative until the flip); everything queues behind
            // a Trim, whose scrub changes the bytes underneath.
            if (!is_write && it->second.kind != OpKind::Trim)
                continue;
            it->second.waiters.push_back(h);
            return true;
        }
        if (!is_write)
            continue;
        const auto row = static_cast<std::uint32_t>(ci / g.entriesPerRow);
        const auto col = static_cast<std::uint32_t>(ci % g.entriesPerRow);
        if (!binding.map.entryValid(row, col)) {
            startAlloc(h, binding, static_cast<std::uint32_t>(ci));
            return true;
        }
        if (binding.map.entryShared(row, col)) {
            ChunkOp &op = openChunkOp(key, OpKind::Cow, binding.fn,
                                      binding.nsid);
            op.waiters.push_back(h);
            startCow(key, binding.fn, binding.nsid,
                     static_cast<std::uint32_t>(ci));
            return true;
        }
    }
    return false;
}

void
TargetController::startAlloc(Handle h, NsBinding &binding,
                             std::uint32_t chunk_index)
{
    auto placement = _allocHook(binding.fn, binding.nsid, chunk_index);
    if (!placement) {
        fail(h, Status::CapacityExceeded);
        return;
    }
    const std::uint64_t key = heatKey(binding.key(), chunk_index);
    ChunkOp &op = openChunkOp(key, OpKind::Alloc, binding.fn, binding.nsid);
    op.waiters.push_back(h);
    Cmd &c = _cmds[h];
    c.opChunk = chunk_index;
    c.opSlot = placement->slot;
    c.opBase = placement->chunk;
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    // Scrub the recycled chunk before the mapping entry goes live:
    // reads meanwhile zero-fill off the invalid entry, and once the
    // entry flips the media genuinely holds zeroes — the previous
    // owner's bytes are never exposed.
    scrub(h, std::uint64_t(c.opBase) * chunk_blocks, chunk_blocks);
}

void
TargetController::allocScrubbed(Handle h, bool ok)
{
    const Cmd &c = _cmds[h];
    const pcie::FunctionId fn_id = c.fn->functionId();
    const std::uint32_t nsid = sqeOf(c).nsid;
    const std::uint32_t chunk_index = c.opChunk;
    const std::uint64_t key =
        heatKey(QosModule::key(fn_id, nsid), chunk_index);
    NsBinding *b = bindingOf(c);
    if (!b) {
        finishChunkOp(key, Status::InvalidNamespace);
        return;
    }
    if (!ok) {
        // Roll the reservation back (the entry was never programmed);
        // queued writes fail.
        _trimHook(fn_id, nsid, chunk_index);
        finishChunkOp(key, Status::NamespaceNotReady);
        return;
    }
    const LbaMapGeometry &g = b->map.geometry();
    bool set = b->map.setEntry(chunk_index / g.entriesPerRow,
                               chunk_index % g.entriesPerRow,
                               static_cast<std::uint8_t>(c.opBase),
                               c.opSlot);
    BMS_ASSERT(set, "thin allocation flip rejected: chunk ", chunk_index,
               " -> slot ", int(c.opSlot), " chunk ", c.opBase);
    ++_allocOnWrite;
    finishChunkOp(key, Status::Success);
}

void
TargetController::startCow(std::uint64_t key, pcie::FunctionId fn_id,
                           std::uint32_t nsid, std::uint32_t chunk_index)
{
    ++_cowTriggers;
    _cowHook(fn_id, nsid, chunk_index, [this, key](bool ok) {
        // On failure (no private chunk available) the queued writes
        // fail like any other out-of-space thin write.
        finishChunkOp(key,
                      ok ? Status::Success : Status::CapacityExceeded);
    });
}

void
TargetController::scrub(Handle h, std::uint64_t phys_lba,
                        std::uint64_t blocks)
{
    Cmd &c = _cmds[h];
    c.scrubLba = phys_lba;
    c.scrubBlocks = blocks;
    c.scrubDeadline = now() + kScrubReadyWait;
    scrubNext(h);
}

void
TargetController::scrubNext(Handle h)
{
    Cmd &c = _cmds[h];
    if (c.scrubBlocks == 0) {
        scrubbed(h, true);
        return;
    }
    if (_engine.isRemoteSlot(c.opSlot)) {
        // Thin allocations only land on local pools (placement policy
        // skips remote slots) and remote-resident deallocates are
        // refused upstream; reaching here means neither guarantee can
        // be met, so report failure rather than skip the scrub.
        scrubbed(h, false);
        return;
    }
    HostAdaptor &ad = _engine.adaptor(c.opSlot);
    if (!ad.ready()) {
        // A hot-plug swap empties the slot until the new disk is up;
        // the commands queued on this scrub are held like any other
        // swap-crossing I/O, so wait the swap out rather than failing
        // a thin write that would succeed moments later.
        if (now() >= c.scrubDeadline) {
            scrubbed(h, false);
            return;
        }
        schedule(kScrubReadyPoll, [this, h] { scrubNext(h); });
        return;
    }
    Sqe z;
    z.opcode = static_cast<std::uint8_t>(IoOpcode::WriteZeroes);
    z.nsid = 1;
    z.setSlba(c.scrubLba);
    z.setNlb(static_cast<std::uint32_t>(
        std::min(c.scrubBlocks, kMaxZeroBlocks)));
    ad.submitIo(z, [this, h](const nvme::Cqe &cqe) {
        if (!cqe.ok()) {
            scrubbed(h, false);
            return;
        }
        Cmd &c = _cmds[h];
        const std::uint64_t n = std::min(c.scrubBlocks, kMaxZeroBlocks);
        c.scrubLba += n;
        c.scrubBlocks -= n;
        scrubNext(h);
    });
}

void
TargetController::scrubbed(Handle h, bool ok)
{
    if (static_cast<IoOpcode>(sqeOf(_cmds[h]).opcode) != IoOpcode::Dsm) {
        allocScrubbed(h, ok);
        return;
    }
    if (!ok) {
        // The range was not (fully) zeroed; surface that in the DSM
        // status so nobody assumes zero reads.
        trimDone(h, Status::NamespaceNotReady, Status::NamespaceNotReady);
        return;
    }
    ++_cmds[h].piece;
    zeroPieces(h);
}

void
TargetController::forward(Handle h)
{
    NsBinding *binding = bindingOf(_cmds[h]);
    if (!binding) {
        fail(h, Status::InvalidNamespace);
        return;
    }
    // Thin/CoW classification first: a command touching a chunk with
    // an operation in flight queues on it (and re-enters here), a
    // write to an unallocated chunk triggers allocate-on-write, a
    // write through a shared entry triggers chunk CoW.
    if (classifyChunks(h, *binding))
        return;

    // Carve the command into chunk-contiguous extents (almost always
    // exactly one: chunks are 64 GiB and host I/O is <= 2 MiB).
    Cmd &c = _cmds[h];
    const std::uint64_t chunk_blocks = binding->map.geometry().chunkBlocks;
    c.chunkBlocks = chunk_blocks;
    c.extents.clear();
    c.zeros.clear();
    std::uint64_t lba = sqeOf(c).slba();
    std::uint64_t remaining = sqeOf(c).nlb();
    std::uint64_t byte_off = 0;
    while (remaining > 0) {
        std::uint64_t in_chunk = chunk_blocks - (lba % chunk_blocks);
        std::uint64_t blocks = remaining < in_chunk ? remaining : in_chunk;
        auto mapping = binding->map.translate(lba);
        if (!mapping) {
            // In-bounds but unmapped: a thin chunk nobody ever wrote.
            // Reads zero-fill the host buffer without touching media
            // (writes never get here — classifyChunks consumed them).
            c.zeros.push_back(ZeroRange{byte_off,
                                        blocks * nvme::kBlockSize});
        } else {
            c.extents.push_back(PhysExtent{mapping->ssdId,
                                           mapping->physLba, byte_off,
                                           blocks});
            _heatBytes[heatKey(
                binding->key(),
                static_cast<std::uint32_t>(lba / chunk_blocks))] +=
                blocks * nvme::kBlockSize;
        }
        lba += blocks;
        remaining -= blocks;
        byte_off += blocks * nvme::kBlockSize;
    }
    admit(h);
}

void
TargetController::admit(Handle h)
{
    // Step ②½: the migration gate pins the physical chunks at
    // translate time — a command dispatched later (e.g. after a PRP
    // list fetch) still targets chunks the gate knows about, writes
    // may pick up mirror legs or be held while a segment copy runs.
    Cmd &c = _cmds[h];
    const Sqe &sqe = sqeOf(c);
    const bool is_write =
        static_cast<IoOpcode>(sqe.opcode) == IoOpcode::Write;
    if (!_engine.migrationGate().admit(h, is_write, c.extents,
                                       c.chunkBlocks, c.mirrors,
                                       [this, h] { admit(h); }))
        return;

    const std::uint64_t len = sqe.dataBytes();
    c.pages.assign(1, sqe.prp1);
    if (!nvme::needsPrpList(sqe.prp1, len)) {
        if (nvme::prpPageCount(sqe.prp1, len) == 2)
            c.pages.push_back(sqe.prp2);
        dispatch(h);
        return;
    }
    // Step ③: fetch the host PRP list over the host link straight
    // into the record, to be rewritten into global PRPs and staged in
    // chip memory per leg.
    const std::uint32_t entries = nvme::prpPageCount(sqe.prp1, len) - 1;
    c.pages.resize(1 + entries);
    _engine.hostUpstream()->dmaRead(
        sqe.prp2, entries * 8,
        reinterpret_cast<std::uint8_t *>(c.pages.data() + 1),
        [this, h] { dispatch(h); });
}

void
TargetController::dispatch(Handle h)
{
    Cmd &c = _cmds[h];
    const Sqe &sqe = sqeOf(c);
    BMS_ASSERT(!c.extents.empty() || !c.zeros.empty(),
               "I/O resolved to no extents");
    // The single-extent fast path rewrites the whole transfer's PRPs;
    // it only applies when that one extent IS the whole transfer.
    const bool single = c.extents.size() == 1 && c.zeros.empty();
    if (c.extents.size() > 1)
        ++_split;
    if (!single && !c.extents.empty()) {
        BMS_ASSERT_EQ(sqe.prp1 % nvme::kPageSize, 0u,
                      "chunk-straddling I/O requires page-aligned buffers");
    }

    if (!c.zeros.empty())
        ++_zeroFill;

    // The barrier also counts one leg dispatch holds until every leg
    // is issued, so the zero-fill pieces need no count up front.
    const std::size_t legs = c.extents.size() + c.mirrors.size();
    c.legsLeft = legs + 1;
    c.listSlots.assign(legs, 0);
    for (std::uint32_t leg = 0; leg < c.extents.size(); ++leg) {
        if (!_engine.adaptor(c.extents[leg].ssdId).ready()) {
            c.worst = Status::NamespaceNotReady;
            legFinished(h);
            continue;
        }
        ++_forwarded;
        submitLeg(h, leg);
    }
    for (std::uint32_t leg = static_cast<std::uint32_t>(c.extents.size());
         leg < legs; ++leg) {
        const PhysExtent &m = c.mirrors[leg - c.extents.size()];
        if (!_engine.adaptor(m.ssdId).ready()) {
            c.mirrorOk = false;
            if (m.strict)
                c.worst = Status::NamespaceNotReady;
            legFinished(h);
            continue;
        }
        submitLeg(h, leg);
    }
    // Zero-filled ranges DMA straight from the engine's zero page to
    // the host buffer, one piece per host page (the first may start
    // mid-page) — no media access, no heat.
    const std::uint64_t first_bytes =
        nvme::kPageSize - sqe.prp1 % nvme::kPageSize;
    for (const ZeroRange &z : c.zeros) {
        std::uint64_t b = z.byteOffset;
        std::uint64_t len = z.bytes;
        while (len > 0) {
            std::uint64_t addr, avail;
            if (b < first_bytes) {
                addr = sqe.prp1 + b;
                avail = first_bytes - b;
            } else {
                std::uint64_t b2 = b - first_bytes;
                std::size_t page = 1 + b2 / nvme::kPageSize;
                BMS_ASSERT_LT(page, c.pages.size(),
                              "zero-fill range exceeds host PRP pages");
                addr = c.pages[page] + b2 % nvme::kPageSize;
                avail = nvme::kPageSize - b2 % nvme::kPageSize;
            }
            std::uint64_t n = std::min(len, avail);
            ++c.legsLeft;
            _engine.hostUpstream()->dmaWrite(
                addr, static_cast<std::uint32_t>(n), kZeroPage,
                [this, h] { legFinished(h); });
            b += n;
            len -= n;
        }
    }
    legFinished(h);
}

void
TargetController::submitLeg(Handle h, std::uint32_t leg)
{
    // Point the leg's PRPs at its host pages, tagged with the function
    // id. A leg of more than two pages gets its rewritten PRP list in a
    // page-aligned chip-memory slot, which it holds until its back-end
    // completion (NVMe reads a list page's last entry as a chain
    // pointer, so a list never straddles a page).
    Cmd &c = _cmds[h];
    const PhysExtent &ext = leg < c.extents.size()
                                ? c.extents[leg]
                                : c.mirrors[leg - c.extents.size()];
    const pcie::FunctionId fn_id = c.fn->functionId();
    Sqe bsqe = sqeOf(c);
    bsqe.nsid = 1; // back-end SSDs expose one raw namespace
    bsqe.setSlba(ext.physLba);
    bsqe.setNlb(static_cast<std::uint32_t>(ext.blocks));

    // The single-extent fast path rewrites the whole transfer; a split
    // leg selects its own pages.
    const bool single = c.extents.size() == 1 && c.zeros.empty();
    std::uint64_t ext_len = ext.blocks * nvme::kBlockSize;
    std::size_t first_page = single ? 0 : ext.byteOffset / nvme::kPageSize;
    std::size_t page_count =
        single ? c.pages.size()
               : (ext_len + nvme::kPageSize - 1) / nvme::kPageSize;
    BMS_ASSERT_LE(first_page + page_count, c.pages.size(),
                  "extent pages exceed rewritten PRP list");
    bsqe.prp1 = GlobalPrp::encode(c.pages[first_page], fn_id, false);
    if (page_count == 1) {
        bsqe.prp2 = 0;
    } else if (page_count == 2) {
        bsqe.prp2 = GlobalPrp::encode(c.pages[first_page + 1], fn_id, false);
    } else {
        ++_listsRewritten;
        _list.clear();
        for (std::size_t i = 1; i < page_count; ++i)
            _list.push_back(
                GlobalPrp::encode(c.pages[first_page + i], fn_id, false));
        BMS_ASSERT_LE(_list.size() * 8, nvme::kPageSize,
                      "PRP list exceeds one page");
        const std::uint64_t slot = takeListSlot();
        c.listSlots[leg] = slot;
        _engine.chipMemory().write(
            slot, static_cast<std::uint32_t>(_list.size() * 8),
            reinterpret_cast<const std::uint8_t *>(_list.data()));
        bsqe.prp2 = GlobalPrp::encode(slot, fn_id, true);
    }
    _engine.adaptor(ext.ssdId).submitIo(
        bsqe, [this, h, leg](const nvme::Cqe &cqe) { legDone(h, leg, cqe); });
}

void
TargetController::legDone(Handle h, std::uint32_t leg, const nvme::Cqe &cqe)
{
    Cmd &c = _cmds[h];
    if (c.listSlots[leg] != 0)
        _freeListSlots.push_back(c.listSlots[leg]);
    if (!cqe.ok()) {
        if (leg < c.extents.size()) {
            c.worst = cqe.status();
        } else {
            // Until the flip the source leg stays authoritative: a
            // failed mirror does not fail the tenant write, it dirties
            // the touched segments so the migration re-copies them. A
            // strict (tier shadow) leg is the loss-recovery image: its
            // failure also fails the write, so neither side silently
            // diverges.
            c.mirrorOk = false;
            if (c.mirrors[leg - c.extents.size()].strict)
                c.worst = cqe.status();
        }
    }
    legFinished(h);
}

void
TargetController::legFinished(Handle h)
{
    Cmd &c = _cmds[h];
    if (--c.legsLeft != 0)
        return;
    // A mirror leg that failed after its migration flipped leaves the
    // write only on the released source: it did not happen.
    if (!_engine.migrationGate().complete(h, c.mirrorOk) &&
        c.worst == Status::Success)
        c.worst = Status::DataTransferError;
    // Step ⑦: post the front-end CQE after the completion pipeline.
    completeAfterPipeline(h, c.worst);
}

std::uint64_t
TargetController::takeListSlot()
{
    if (_freeListSlots.empty())
        return _engine.chipMemory().alloc(nvme::kPageSize, nvme::kPageSize);
    std::uint64_t slot = _freeListSlots.back();
    _freeListSlots.pop_back();
    return slot;
}

void
TargetController::handleDsm(Handle h)
{
    ++_dsmCommands;
    Cmd &c = _cmds[h];
    const Sqe &sqe = sqeOf(c);
    if (!(sqe.cdw11 & nvme::kDsmAttrDeallocate)) {
        // Only the deallocate attribute is implemented; the access
        // hints are acknowledged and ignored.
        post(h, Status::Success);
        return;
    }
    const std::uint32_t nr = (sqe.cdw10 & 0xff) + 1;
    const std::uint32_t bytes =
        nr * static_cast<std::uint32_t>(sizeof(nvme::DsmRange));
    if (sqe.prp1 == 0 ||
        sqe.prp1 % nvme::kPageSize + bytes > nvme::kPageSize) {
        // The range list always fits one page (256 * 16 B); a buffer
        // straddling pages is malformed here.
        fail(h, Status::InvalidField);
        return;
    }
    c.pages.resize(bytes / sizeof(std::uint64_t));
    _engine.hostUpstream()->dmaRead(
        sqe.prp1, bytes, reinterpret_cast<std::uint8_t *>(c.pages.data()),
        [this, h] { parseDsm(h); });
}

void
TargetController::parseDsm(Handle h)
{
    Cmd &c = _cmds[h];
    NsBinding *b = bindingOf(c);
    if (!b) {
        completeAfterPipeline(h, Status::InvalidNamespace);
        return;
    }
    const std::uint64_t size_blocks = b->info.sizeBlocks;
    const std::uint64_t chunk_blocks = b->map.geometry().chunkBlocks;
    const std::uint32_t nr = (sqeOf(c).cdw10 & 0xff) + 1;
    const auto *raw = reinterpret_cast<const std::uint8_t *>(c.pages.data());
    c.chunks.clear();
    c.next = 0;
    for (std::uint32_t i = 0; i < nr; ++i) {
        auto r = nvme::fromBytes<nvme::DsmRange>(
            raw + i * sizeof(nvme::DsmRange));
        if (r.nlb == 0)
            continue;
        if (r.slba + r.nlb > size_blocks) {
            fail(h, Status::LbaOutOfRange);
            return;
        }
        // Carve the range into per-chunk work. Only a single range
        // covering a whole chunk frees it; sub-chunk pieces are
        // scrubbed in place.
        std::uint64_t lba = r.slba;
        std::uint64_t remaining = r.nlb;
        while (remaining > 0) {
            std::uint64_t in_chunk = chunk_blocks - lba % chunk_blocks;
            std::uint64_t blocks =
                std::min<std::uint64_t>(remaining, in_chunk);
            auto ci = static_cast<std::uint32_t>(lba / chunk_blocks);
            auto dc = std::find_if(
                c.chunks.begin(), c.chunks.end(),
                [ci](const DsmChunk &d) { return d.chunk == ci; });
            if (dc == c.chunks.end()) {
                c.chunks.emplace_back();
                dc = c.chunks.end() - 1;
                dc->chunk = ci;
            }
            if (blocks == chunk_blocks)
                dc->full = true;
            else
                dc->pieces.emplace_back(lba % chunk_blocks, blocks);
            lba += blocks;
            remaining -= blocks;
        }
    }
    // Deterministic walk order regardless of range order.
    std::sort(c.chunks.begin(), c.chunks.end(),
              [](const DsmChunk &a, const DsmChunk &b) {
                  return a.chunk < b.chunk;
              });
    trimChunk(h);
}

void
TargetController::dsmChunkDone(Handle h, Status st)
{
    Cmd &c = _cmds[h];
    if (st != Status::Success && c.worst == Status::Success)
        c.worst = st;
    ++c.next;
    trimChunk(h);
}

void
TargetController::trimChunk(Handle h)
{
    const Cmd &c = _cmds[h];
    if (c.next >= c.chunks.size()) {
        // A partial failure still completes with an error status: the
        // host (and the fuzz oracle) must not assume the untouched
        // ranges were zeroed.
        completeAfterPipeline(h, c.worst);
        return;
    }
    NsBinding *b = bindingOf(c);
    if (!b) {
        dsmChunkDone(h, Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = c.chunks[c.next];
    const std::uint64_t key = heatKey(b->key(), dc.chunk);
    auto it = _chunkOps.find(key);
    if (it != _chunkOps.end()) {
        // Wait out whatever runs on this chunk, then re-enter.
        it->second.waiters.push_back(h);
        return;
    }
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        // Never-written or already-deallocated chunk: nothing to do.
        dsmChunkDone(h, Status::Success);
        return;
    }
    if (_engine.isRemoteSlot(b->map.entrySlot(row, col))) {
        // Spilled to the remote tier: refused rather than silently
        // skipped, so the host knows the blocks were NOT zeroed
        // (promote the chunk first).
        dsmChunkDone(h, Status::InvalidField);
        return;
    }
    if (b->map.entryShared(row, col) && !dc.full) {
        // Sub-chunk scrub of a snapshot-pinned chunk: CoW first — a
        // write of zeroes must not reach the pinned image. A full-
        // chunk deallocate just drops the reference instead.
        ChunkOp &op = openChunkOp(key, OpKind::Cow, b->fn, b->nsid);
        op.waiters.push_back(h);
        startCow(key, b->fn, b->nsid, dc.chunk);
        return;
    }
    openChunkOp(key, OpKind::Trim, b->fn, b->nsid);
    attemptTrim(h);
}

void
TargetController::trimDone(Handle h, Status op_st, Status st)
{
    const Cmd &c = _cmds[h];
    finishChunkOp(heatKey(QosModule::key(c.fn->functionId(), sqeOf(c).nsid),
                          c.chunks[c.next].chunk),
                  op_st);
    dsmChunkDone(h, st);
}

void
TargetController::attemptTrim(Handle h)
{
    Cmd &c = _cmds[h];
    NsBinding *b = bindingOf(c);
    if (!b) {
        trimDone(h, Status::InvalidNamespace, Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = c.chunks[c.next];
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        trimDone(h, Status::Success, Status::Success);
        return;
    }
    const std::uint8_t slot = b->map.entrySlot(row, col);
    const std::uint32_t base = b->map.entryBase(row, col);
    MigrationGate &gate = _engine.migrationGate();
    if (gate.migrationTouches(slot, base)) {
        // A copier opened before this op pinned the namespace still
        // reads the chunk; wait it out rather than scrub under it.
        schedule(kTrimRetryDelay, [this, h] { attemptTrim(h); });
        return;
    }
    c.opSlot = slot;
    c.opBase = base;
    c.chunkBlocks = g.chunkBlocks;
    gate.whenChunkIdle(slot, static_cast<std::uint8_t>(base),
                       [this, h] { trimIdle(h); });
}

void
TargetController::trimIdle(Handle h)
{
    const Cmd &c = _cmds[h];
    NsBinding *b = bindingOf(c);
    if (!b) {
        trimDone(h, Status::InvalidNamespace, Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = c.chunks[c.next];
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        trimDone(h, Status::Success, Status::Success);
        return;
    }
    if (b->map.entrySlot(row, col) != c.opSlot ||
        b->map.entryBase(row, col) != c.opBase ||
        _engine.migrationGate().migrationTouches(c.opSlot, c.opBase)) {
        // The chunk moved (a pre-existing migration cut over) while we
        // drained; retry against the new placement.
        attemptTrim(h);
        return;
    }
    if (dc.full) {
        bool ok = _trimHook(b->fn, b->nsid, dc.chunk);
        if (ok)
            ++_trimmedChunks;
        trimDone(h, Status::Success,
                 ok ? Status::Success : Status::InvalidField);
        return;
    }
    _cmds[h].piece = 0;
    zeroPieces(h);
}

void
TargetController::zeroPieces(Handle h)
{
    const Cmd &c = _cmds[h];
    const DsmChunk &dc = c.chunks[c.next];
    if (c.piece >= dc.pieces.size()) {
        trimDone(h, Status::Success, Status::Success);
        return;
    }
    const auto [off, blocks] = dc.pieces[c.piece];
    scrub(h, std::uint64_t(c.opBase) * c.chunkBlocks + off, blocks);
}

std::unordered_map<std::uint64_t, std::uint64_t>
TargetController::drainHeat()
{
    std::unordered_map<std::uint64_t, std::uint64_t> out;
    out.swap(_heatBytes);
    return out;
}

void
TargetController::forwardFlush(Handle h, NsBinding &binding)
{
    // Flush every back-end SSD this namespace has a chunk on.
    std::bitset<256> used;
    const LbaMapGeometry &g = binding.map.geometry();
    for (std::uint32_t r = 0; r < g.rows; ++r)
        for (std::uint32_t c = 0; c < g.entriesPerRow; ++c)
            if (binding.map.entryValid(r, c))
                used.set(binding.map.entrySlot(r, c));
    if (used.none()) {
        post(h, Status::Success);
        return;
    }

    Cmd &c = _cmds[h];
    c.legsLeft = used.count();
    Sqe bsqe = sqeOf(c);
    bsqe.nsid = 1;
    for (int s = 0; s < _engine.ssdSlots(); ++s) {
        if (!used[static_cast<std::size_t>(s)])
            continue;
        HostAdaptor &ad = _engine.adaptor(s);
        if (!ad.ready()) {
            if (--c.legsLeft == 0)
                post(h, Status::NamespaceNotReady);
            continue;
        }
        ++_forwarded;
        ad.submitIo(bsqe, [this, h](const nvme::Cqe &cqe) {
            (void)cqe;
            if (--_cmds[h].legsLeft == 0)
                completeAfterPipeline(h, Status::Success);
        });
    }
}

} // namespace bms::core
