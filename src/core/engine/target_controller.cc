#include "core/engine/target_controller.hh"

#include <algorithm>
#include <memory>
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
 *  (firmware activation pauses the slot for seconds, never minutes). */
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

void
TargetController::fail(FrontFunction &fn, const Sqe &sqe,
                       std::uint16_t sqid, Status st)
{
    ++_errors;
    fn.complete(sqid, sqe.cid, st);
}

void
TargetController::handleIo(FrontFunction &fn, const Sqe &sqe,
                           std::uint16_t sqid)
{
    NsBinding *binding = _engine.findBinding(fn.functionId(), sqe.nsid);
    if (!binding) {
        fail(fn, sqe, sqid, Status::InvalidNamespace);
        return;
    }
    auto op = static_cast<IoOpcode>(sqe.opcode);
    if (op == IoOpcode::Flush) {
        forwardFlush(fn, sqe, sqid, *binding);
        return;
    }
    if (op == IoOpcode::Dsm) {
        // Negligible transfer (one range page); bypasses QoS.
        handleDsm(fn, sqe, sqid, *binding);
        return;
    }
    if (op != IoOpcode::Read && op != IoOpcode::Write) {
        fail(fn, sqe, sqid, Status::InvalidOpcode);
        return;
    }
    if (sqe.slba() + sqe.nlb() > binding->info.sizeBlocks) {
        fail(fn, sqe, sqid, Status::LbaOutOfRange);
        return;
    }
    // Step ②: QoS threshold check; buffered commands re-enter here
    // from the command dispatcher.
    _engine.qos().submit(binding->key(), sqe.dataBytes(),
                         [this, &fn, sqe, sqid, binding] {
                             forward(fn, sqe, sqid, *binding);
                         });
}

void
TargetController::retryForward(FrontFunction &fn, const Sqe &sqe,
                               std::uint16_t sqid)
{
    NsBinding *binding = _engine.findBinding(fn.functionId(), sqe.nsid);
    if (!binding) {
        fail(fn, sqe, sqid, Status::InvalidNamespace);
        return;
    }
    forward(fn, sqe, sqid, *binding);
}

std::function<void(Status)>
TargetController::makeRetryWaiter(FrontFunction &fn, const Sqe &sqe,
                                  std::uint16_t sqid)
{
    return [this, &fn, sqe, sqid](Status st) {
        if (st != Status::Success) {
            fail(fn, sqe, sqid, st);
            return;
        }
        retryForward(fn, sqe, sqid);
    };
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
    for (auto &w : op.waiters)
        w(st);
}

bool
TargetController::classifyChunks(FrontFunction &fn, const Sqe &sqe,
                                 std::uint16_t sqid, NsBinding &binding)
{
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
            it->second.waiters.push_back(makeRetryWaiter(fn, sqe, sqid));
            return true;
        }
        if (!is_write)
            continue;
        const auto row = static_cast<std::uint32_t>(ci / g.entriesPerRow);
        const auto col = static_cast<std::uint32_t>(ci % g.entriesPerRow);
        if (!binding.map.entryValid(row, col)) {
            startAlloc(fn, sqe, sqid, binding,
                       static_cast<std::uint32_t>(ci));
            return true;
        }
        if (binding.map.entryShared(row, col)) {
            ChunkOp &op = openChunkOp(key, OpKind::Cow, fn.functionId(),
                                      sqe.nsid);
            op.waiters.push_back(makeRetryWaiter(fn, sqe, sqid));
            startCow(key, fn.functionId(), sqe.nsid,
                     static_cast<std::uint32_t>(ci));
            return true;
        }
    }
    return false;
}

void
TargetController::startAlloc(FrontFunction &fn, const Sqe &sqe,
                             std::uint16_t sqid, NsBinding &binding,
                             std::uint32_t chunk_index)
{
    const pcie::FunctionId fn_id = fn.functionId();
    const std::uint32_t nsid = sqe.nsid;
    auto placement = _allocHook(fn_id, nsid, chunk_index);
    if (!placement) {
        fail(fn, sqe, sqid, Status::CapacityExceeded);
        return;
    }
    const std::uint64_t key = heatKey(binding.key(), chunk_index);
    ChunkOp &op = openChunkOp(key, OpKind::Alloc, fn_id, nsid);
    op.waiters.push_back(makeRetryWaiter(fn, sqe, sqid));
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    const std::uint8_t slot = placement->slot;
    const std::uint8_t chunk = placement->chunk;
    // Scrub the recycled chunk before the mapping entry goes live:
    // reads meanwhile zero-fill off the invalid entry, and once the
    // entry flips the media genuinely holds zeroes — the previous
    // owner's bytes are never exposed.
    zeroPhysRange(
        slot, std::uint64_t(chunk) * chunk_blocks, chunk_blocks,
        [this, key, fn_id, nsid, chunk_index, slot, chunk](bool ok) {
            NsBinding *b = _engine.findBinding(fn_id, nsid);
            if (!b) {
                finishChunkOp(key, Status::InvalidNamespace);
                return;
            }
            if (!ok) {
                // Roll the reservation back (the entry was never
                // programmed); queued writes fail.
                _trimHook(fn_id, nsid, chunk_index);
                finishChunkOp(key, Status::NamespaceNotReady);
                return;
            }
            const LbaMapGeometry &g = b->map.geometry();
            bool set = b->map.setEntry(chunk_index / g.entriesPerRow,
                                       chunk_index % g.entriesPerRow,
                                       chunk, slot);
            BMS_ASSERT(set, "thin allocation flip rejected: chunk ",
                       chunk_index, " -> slot ", int(slot), " chunk ",
                       int(chunk));
            ++_allocOnWrite;
            finishChunkOp(key, Status::Success);
        });
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
TargetController::zeroPhysRange(std::uint8_t slot, std::uint64_t phys_lba,
                                std::uint64_t blocks,
                                std::function<void(bool)> done)
{
    zeroPhysRangeUntil(slot, phys_lba, blocks, now() + kScrubReadyWait,
                       std::move(done));
}

void
TargetController::zeroPhysRangeUntil(std::uint8_t slot,
                                     std::uint64_t phys_lba,
                                     std::uint64_t blocks,
                                     sim::Tick deadline,
                                     std::function<void(bool)> done)
{
    if (blocks == 0) {
        done(true);
        return;
    }
    if (_engine.isRemoteSlot(slot)) {
        // Thin allocations only land on local pools (placement policy
        // skips remote slots) and remote-resident deallocates are
        // refused upstream; reaching here means neither guarantee can
        // be met, so report failure rather than skip the scrub.
        done(false);
        return;
    }
    HostAdaptor &ad = _engine.adaptor(slot);
    if (!ad.ready()) {
        // Firmware activation holds the slot for a few seconds; the
        // commands queued on this scrub are held like any other
        // upgrade-crossing I/O, so wait the pause out rather than
        // failing a thin write that would succeed moments later.
        if (now() >= deadline) {
            done(false);
            return;
        }
        schedule(kScrubReadyPoll, [this, slot, phys_lba, blocks, deadline,
                                   done = std::move(done)]() mutable {
            zeroPhysRangeUntil(slot, phys_lba, blocks, deadline,
                               std::move(done));
        });
        return;
    }
    const std::uint64_t n = std::min(blocks, kMaxZeroBlocks);
    Sqe z;
    z.opcode = static_cast<std::uint8_t>(IoOpcode::WriteZeroes);
    z.nsid = 1;
    z.setSlba(phys_lba);
    z.setNlb(static_cast<std::uint32_t>(n));
    ad.submitIo(z, [this, slot, phys_lba, blocks, n, deadline,
                    done = std::move(done)](const nvme::Cqe &cqe) mutable {
        if (!cqe.ok()) {
            done(false);
            return;
        }
        if (blocks == n) {
            done(true);
            return;
        }
        zeroPhysRangeUntil(slot, phys_lba + n, blocks - n, deadline,
                           std::move(done));
    });
}

void
TargetController::forward(FrontFunction &fn, const Sqe &sqe,
                          std::uint16_t sqid, NsBinding &binding)
{
    // Thin/CoW classification first: a command touching a chunk with
    // an operation in flight queues on it (and re-enters here), a
    // write to an unallocated chunk triggers allocate-on-write, a
    // write through a shared entry triggers chunk CoW.
    if (classifyChunks(fn, sqe, sqid, binding))
        return;

    // Carve the command into chunk-contiguous extents (almost always
    // exactly one: chunks are 64 GiB and host I/O is <= 2 MiB).
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    std::vector<PhysExtent> extents;
    std::vector<ZeroRange> zeros;
    std::uint64_t lba = sqe.slba();
    std::uint64_t remaining = sqe.nlb();
    std::uint64_t byte_off = 0;
    while (remaining > 0) {
        std::uint64_t in_chunk = chunk_blocks - (lba % chunk_blocks);
        std::uint64_t blocks = remaining < in_chunk ? remaining : in_chunk;
        auto mapping = binding.map.translate(lba);
        if (!mapping) {
            // In-bounds but unmapped: a thin chunk nobody ever wrote.
            // Reads zero-fill the host buffer without touching media
            // (writes never get here — classifyChunks consumed them).
            zeros.push_back(ZeroRange{byte_off,
                                      blocks * nvme::kBlockSize});
        } else {
            extents.push_back(PhysExtent{mapping->ssdId, mapping->physLba,
                                         byte_off, blocks});
            _heatBytes[heatKey(
                binding.key(),
                static_cast<std::uint32_t>(lba / chunk_blocks))] +=
                blocks * nvme::kBlockSize;
        }
        lba += blocks;
        remaining -= blocks;
        byte_off += blocks * nvme::kBlockSize;
    }

    // Step ②½: the migration gate pins the physical chunks at
    // translate time — a command dispatched later (e.g. after a PRP
    // list fetch) still targets chunks the gate knows about, writes
    // may pick up mirror legs or be held while a segment copy runs.
    const bool is_write =
        static_cast<IoOpcode>(sqe.opcode) == IoOpcode::Write;
    _engine.migrationGate().admit(
        is_write, std::move(extents), chunk_blocks,
        [this, &fn, sqe, sqid,
         zeros = std::move(zeros)](std::uint64_t token,
                                   std::vector<PhysExtent> extents,
                                   std::vector<PhysExtent> mirrors) mutable {
            std::uint64_t len = sqe.dataBytes();
            if (!nvme::needsPrpList(sqe.prp1, len)) {
                std::vector<std::uint64_t> pages;
                pages.push_back(sqe.prp1);
                if (nvme::prpPageCount(sqe.prp1, len) == 2)
                    pages.push_back(sqe.prp2);
                dispatch(fn, sqe, sqid, token, std::move(extents),
                         std::move(mirrors), std::move(zeros),
                         std::move(pages));
                return;
            }

            // Step ③: fetch the host PRP list over the host link,
            // rewrite it into global PRPs, and stage the rewritten
            // copy in chip memory.
            std::uint32_t entries = nvme::prpPageCount(sqe.prp1, len) - 1;
            auto raw =
                std::make_shared<std::vector<std::uint64_t>>(entries);
            _engine.hostUpstream()->dmaRead(
                sqe.prp2, static_cast<std::uint32_t>(entries * 8),
                reinterpret_cast<std::uint8_t *>(raw->data()),
                [this, &fn, sqe, sqid, token,
                 extents = std::move(extents),
                 mirrors = std::move(mirrors),
                 zeros = std::move(zeros), raw]() mutable {
                    std::vector<std::uint64_t> pages;
                    pages.reserve(raw->size() + 1);
                    pages.push_back(sqe.prp1);
                    for (std::uint64_t e : *raw)
                        pages.push_back(e);
                    dispatch(fn, sqe, sqid, token, std::move(extents),
                             std::move(mirrors), std::move(zeros),
                             std::move(pages));
                });
        });
}

void
TargetController::dispatch(FrontFunction &fn, const Sqe &sqe,
                           std::uint16_t sqid, std::uint64_t gate_token,
                           std::vector<PhysExtent> extents,
                           std::vector<PhysExtent> mirrors,
                           std::vector<ZeroRange> zeros,
                           std::vector<std::uint64_t> host_pages)
{
    BMS_ASSERT(!extents.empty() || !zeros.empty(),
               "I/O resolved to no extents");
    const pcie::FunctionId fn_id = fn.functionId();
    // The single-extent fast path rewrites the whole transfer's PRPs;
    // it only applies when that one extent IS the whole transfer.
    const bool single = extents.size() == 1 && zeros.empty();
    if (extents.size() > 1)
        ++_split;
    if (!single && !extents.empty()) {
        BMS_ASSERT_EQ(sqe.prp1 % nvme::kPageSize, 0u,
                      "chunk-straddling I/O requires page-aligned buffers");
    }

    // Resolve the zero-filled byte ranges into per-page DMA pieces
    // (the first host page may start mid-page).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> zero_pieces;
    const std::uint64_t first_bytes =
        nvme::kPageSize - sqe.prp1 % nvme::kPageSize;
    for (const ZeroRange &z : zeros) {
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
                BMS_ASSERT_LT(page, host_pages.size(),
                              "zero-fill range exceeds host PRP pages");
                addr = host_pages[page] + b2 % nvme::kPageSize;
                avail = nvme::kPageSize - b2 % nvme::kPageSize;
            }
            std::uint64_t n = std::min(len, avail);
            zero_pieces.emplace_back(addr,
                                     static_cast<std::uint32_t>(n));
            b += n;
            len -= n;
        }
    }
    if (!zero_pieces.empty())
        ++_zeroFill;

    auto remaining = std::make_shared<std::size_t>(
        extents.size() + mirrors.size() + zero_pieces.size());
    auto worst = std::make_shared<Status>(Status::Success);
    auto mirror_ok = std::make_shared<bool>(true);
    std::uint16_t cid = sqe.cid;
    auto finish = [this, &fn, sqid, cid, gate_token, remaining, worst,
                   mirror_ok] {
        if (--*remaining != 0)
            return;
        _engine.migrationGate().complete(gate_token, *mirror_ok);
        // Step ⑦: post the front-end CQE after the completion
        // pipeline.
        Status st = *worst;
        if (st != Status::Success)
            ++_errors;
        schedule(_engine.config().completionPipelineDelay,
                 [&fn, sqid, cid, st] { fn.complete(sqid, cid, st); });
    };
    auto on_backend_cqe = [worst, finish](const nvme::Cqe &cqe) {
        if (!cqe.ok())
            *worst = cqe.status();
        finish();
    };
    // The source leg stays authoritative: a failed mirror does not
    // fail the tenant write, it dirties the touched segments so the
    // migration re-copies them.
    auto on_mirror_cqe = [mirror_ok, finish](const nvme::Cqe &cqe) {
        if (!cqe.ok())
            *mirror_ok = false;
        finish();
    };
    // A strict (tier shadow) leg is the loss-recovery image: its
    // failure both fails the tenant write and dirties the touched
    // segments, so neither side silently diverges.
    auto on_strict_cqe = [worst, mirror_ok, finish](const nvme::Cqe &cqe) {
        if (!cqe.ok()) {
            *worst = cqe.status();
            *mirror_ok = false;
        }
        finish();
    };

    // Step ③: point the leg's PRPs at its host pages, tagged with the
    // function id. A leg of more than two pages gets its rewritten PRP
    // list in a page-aligned chip-memory slot, which it holds until its
    // back-end completion (NVMe reads a list page's last entry as a
    // chain pointer, so a list never straddles a page).
    auto build_sqe = [this, &sqe, fn_id, single,
                      &host_pages](const PhysExtent &ext,
                                   std::uint64_t &list_slot) {
        Sqe bsqe = sqe;
        bsqe.nsid = 1; // back-end SSDs expose one raw namespace
        bsqe.setSlba(ext.physLba);
        bsqe.setNlb(static_cast<std::uint32_t>(ext.blocks));

        // The single-extent fast path rewrites the whole transfer; a
        // split leg selects its own pages.
        std::uint64_t ext_len = ext.blocks * nvme::kBlockSize;
        std::size_t first_page =
            single ? 0 : ext.byteOffset / nvme::kPageSize;
        std::size_t page_count =
            single ? host_pages.size()
                   : (ext_len + nvme::kPageSize - 1) / nvme::kPageSize;
        BMS_ASSERT_LE(first_page + page_count, host_pages.size(),
                      "extent pages exceed rewritten PRP list");
        bsqe.prp1 = GlobalPrp::encode(host_pages[first_page], fn_id, false);
        if (page_count == 1) {
            bsqe.prp2 = 0;
        } else if (page_count == 2) {
            bsqe.prp2 = GlobalPrp::encode(host_pages[first_page + 1], fn_id,
                                          false);
        } else {
            ++_listsRewritten;
            std::vector<std::uint64_t> list;
            list.reserve(page_count - 1);
            for (std::size_t i = 1; i < page_count; ++i)
                list.push_back(GlobalPrp::encode(host_pages[first_page + i],
                                                 fn_id, false));
            BMS_ASSERT_LE(list.size() * 8, nvme::kPageSize,
                          "PRP list exceeds one page");
            list_slot = takeListSlot();
            _engine.chipMemory().write(
                list_slot, static_cast<std::uint32_t>(list.size() * 8),
                reinterpret_cast<const std::uint8_t *>(list.data()));
            bsqe.prp2 = GlobalPrp::encode(list_slot, fn_id, true);
        }
        return bsqe;
    };
    auto submit_leg = [this, &build_sqe](HostAdaptor &ad,
                                         const PhysExtent &ext,
                                         HostAdaptor::CqeHandler on_cqe) {
        std::uint64_t list_slot = 0;
        Sqe bsqe = build_sqe(ext, list_slot);
        if (list_slot != 0) {
            on_cqe = [this, list_slot,
                      on_cqe = std::move(on_cqe)](const nvme::Cqe &cqe) {
                _freeListSlots.push_back(list_slot);
                on_cqe(cqe);
            };
        }
        ad.submitIo(bsqe, std::move(on_cqe));
    };

    for (const PhysExtent &ext : extents) {
        HostAdaptor &ad = _engine.adaptor(ext.ssdId);
        if (!ad.ready()) {
            *worst = Status::NamespaceNotReady;
            finish();
            continue;
        }
        ++_forwarded;
        submit_leg(ad, ext, on_backend_cqe);
    }
    for (const PhysExtent &m : mirrors) {
        HostAdaptor &ad = _engine.adaptor(m.ssdId);
        if (!ad.ready()) {
            *mirror_ok = false;
            if (m.strict)
                *worst = Status::NamespaceNotReady;
            finish();
            continue;
        }
        submit_leg(ad, m,
                   m.strict ? HostAdaptor::CqeHandler(on_strict_cqe)
                            : HostAdaptor::CqeHandler(on_mirror_cqe));
    }
    // Zero-filled ranges DMA straight from the engine's zero page to
    // the host buffer — no media access, no heat.
    for (const auto &[addr, len] : zero_pieces)
        _engine.hostUpstream()->dmaWrite(addr, len, kZeroPage, finish);
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
TargetController::handleDsm(FrontFunction &fn, const Sqe &sqe,
                            std::uint16_t sqid, NsBinding &binding)
{
    ++_dsmCommands;
    if (!(sqe.cdw11 & nvme::kDsmAttrDeallocate)) {
        // Only the deallocate attribute is implemented; the access
        // hints are acknowledged and ignored.
        fn.complete(sqid, sqe.cid, Status::Success);
        return;
    }
    const std::uint32_t nr = (sqe.cdw10 & 0xff) + 1;
    const std::uint32_t bytes =
        nr * static_cast<std::uint32_t>(sizeof(nvme::DsmRange));
    if (sqe.prp1 == 0 ||
        sqe.prp1 % nvme::kPageSize + bytes > nvme::kPageSize) {
        // The range list always fits one page (256 * 16 B); a buffer
        // straddling pages is malformed here.
        fail(fn, sqe, sqid, Status::InvalidField);
        return;
    }
    const std::uint64_t size_blocks = binding.info.sizeBlocks;
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    auto raw = std::make_shared<std::vector<std::uint8_t>>(bytes);
    _engine.hostUpstream()->dmaRead(
        sqe.prp1, bytes, raw->data(),
        [this, &fn, sqe, sqid, nr, raw, size_blocks, chunk_blocks] {
            auto job = std::make_shared<DsmJob>();
            job->sqe = sqe;
            job->sqid = sqid;
            for (std::uint32_t i = 0; i < nr; ++i) {
                auto r = nvme::fromBytes<nvme::DsmRange>(
                    raw->data() + i * sizeof(nvme::DsmRange));
                if (r.nlb == 0)
                    continue;
                if (r.slba + r.nlb > size_blocks) {
                    fail(fn, sqe, sqid, Status::LbaOutOfRange);
                    return;
                }
                // Carve the range into per-chunk work. Only a single
                // range covering a whole chunk frees it; sub-chunk
                // pieces are scrubbed in place.
                std::uint64_t lba = r.slba;
                std::uint64_t remaining = r.nlb;
                while (remaining > 0) {
                    std::uint64_t in_chunk =
                        chunk_blocks - lba % chunk_blocks;
                    std::uint64_t blocks =
                        std::min<std::uint64_t>(remaining, in_chunk);
                    auto ci =
                        static_cast<std::uint32_t>(lba / chunk_blocks);
                    DsmChunk *dc = nullptr;
                    for (DsmChunk &c : job->chunks) {
                        if (c.chunk == ci) {
                            dc = &c;
                            break;
                        }
                    }
                    if (!dc) {
                        job->chunks.emplace_back();
                        dc = &job->chunks.back();
                        dc->chunk = ci;
                    }
                    if (blocks == chunk_blocks)
                        dc->full = true;
                    else
                        dc->pieces.emplace_back(lba % chunk_blocks,
                                                blocks);
                    lba += blocks;
                    remaining -= blocks;
                }
            }
            // Deterministic walk order regardless of range order.
            std::sort(job->chunks.begin(), job->chunks.end(),
                      [](const DsmChunk &a, const DsmChunk &b) {
                          return a.chunk < b.chunk;
                      });
            processNextDsmChunk(fn, std::move(job));
        });
}

void
TargetController::processNextDsmChunk(FrontFunction &fn,
                                      std::shared_ptr<DsmJob> job)
{
    if (job->next >= job->chunks.size()) {
        // A partial failure still completes with an error status: the
        // host (and the fuzz oracle) must not assume the untouched
        // ranges were zeroed.
        const Status st = job->worst;
        if (st != Status::Success)
            ++_errors;
        const std::uint16_t sqid = job->sqid;
        const std::uint16_t cid = job->sqe.cid;
        schedule(_engine.config().completionPipelineDelay,
                 [&fn, sqid, cid, st] { fn.complete(sqid, cid, st); });
        return;
    }
    const std::size_t idx = job->next++;
    trimChunk(fn, job, idx, [this, &fn, job](Status st) {
        if (st != Status::Success && job->worst == Status::Success)
            job->worst = st;
        processNextDsmChunk(fn, job);
    });
}

void
TargetController::trimChunk(FrontFunction &fn, std::shared_ptr<DsmJob> job,
                            std::size_t idx,
                            std::function<void(Status)> done)
{
    NsBinding *b = _engine.findBinding(fn.functionId(), job->sqe.nsid);
    if (!b) {
        done(Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = job->chunks[idx];
    const std::uint64_t key = heatKey(b->key(), dc.chunk);
    auto it = _chunkOps.find(key);
    if (it != _chunkOps.end()) {
        // Wait out whatever runs on this chunk, then re-enter.
        it->second.waiters.push_back(
            [this, &fn, job, idx, done](Status st) {
                if (st != Status::Success) {
                    done(st);
                    return;
                }
                trimChunk(fn, job, idx, done);
            });
        return;
    }
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        // Never-written or already-deallocated chunk: nothing to do.
        done(Status::Success);
        return;
    }
    if (_engine.isRemoteSlot(b->map.entrySlot(row, col))) {
        // Spilled to the remote tier: refused rather than silently
        // skipped, so the host knows the blocks were NOT zeroed
        // (promote the chunk first).
        done(Status::InvalidField);
        return;
    }
    if (b->map.entryShared(row, col) && !dc.full) {
        // Sub-chunk scrub of a snapshot-pinned chunk: CoW first — a
        // write of zeroes must not reach the pinned image. A full-
        // chunk deallocate just drops the reference instead.
        ChunkOp &op = openChunkOp(key, OpKind::Cow, fn.functionId(),
                                  job->sqe.nsid);
        op.waiters.push_back([this, &fn, job, idx, done](Status st) {
            if (st != Status::Success) {
                done(st);
                return;
            }
            trimChunk(fn, job, idx, done);
        });
        startCow(key, fn.functionId(), job->sqe.nsid, dc.chunk);
        return;
    }
    openChunkOp(key, OpKind::Trim, fn.functionId(), job->sqe.nsid);
    attemptTrim(fn, job, idx, key, std::move(done));
}

void
TargetController::attemptTrim(FrontFunction &fn,
                              std::shared_ptr<DsmJob> job, std::size_t idx,
                              std::uint64_t key,
                              std::function<void(Status)> done)
{
    NsBinding *b = _engine.findBinding(fn.functionId(), job->sqe.nsid);
    if (!b) {
        finishChunkOp(key, Status::InvalidNamespace);
        done(Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = job->chunks[idx];
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        finishChunkOp(key, Status::Success);
        done(Status::Success);
        return;
    }
    const std::uint8_t slot = b->map.entrySlot(row, col);
    const std::uint32_t base = b->map.entryBase(row, col);
    MigrationGate &gate = _engine.migrationGate();
    if (gate.migrationTouches(slot, base)) {
        // A copier opened before this op pinned the namespace still
        // reads the chunk; wait it out rather than scrub under it.
        schedule(kTrimRetryDelay, [this, &fn, job, idx, key, done] {
            attemptTrim(fn, job, idx, key, done);
        });
        return;
    }
    const std::uint64_t chunk_blocks = g.chunkBlocks;
    gate.whenChunkIdle(
        slot, static_cast<std::uint8_t>(base),
        [this, &fn, job, idx, key, done, slot, base, chunk_blocks] {
            NsBinding *b =
                _engine.findBinding(fn.functionId(), job->sqe.nsid);
            if (!b) {
                finishChunkOp(key, Status::InvalidNamespace);
                done(Status::InvalidNamespace);
                return;
            }
            const DsmChunk &dc = job->chunks[idx];
            const LbaMapGeometry &g = b->map.geometry();
            const std::uint32_t row = dc.chunk / g.entriesPerRow;
            const std::uint32_t col = dc.chunk % g.entriesPerRow;
            if (!b->map.entryValid(row, col)) {
                finishChunkOp(key, Status::Success);
                done(Status::Success);
                return;
            }
            if (b->map.entrySlot(row, col) != slot ||
                b->map.entryBase(row, col) != base ||
                _engine.migrationGate().migrationTouches(
                    b->map.entrySlot(row, col),
                    b->map.entryBase(row, col))) {
                // The chunk moved (a pre-existing migration cut over)
                // while we drained; retry against the new placement.
                attemptTrim(fn, job, idx, key, done);
                return;
            }
            if (dc.full) {
                bool ok =
                    _trimHook(fn.functionId(), job->sqe.nsid, dc.chunk);
                if (ok)
                    ++_trimmedChunks;
                finishChunkOp(key, Status::Success);
                done(ok ? Status::Success : Status::InvalidField);
                return;
            }
            zeroPieces(job, idx, 0, slot, base, chunk_blocks, key,
                       std::move(done));
        });
}

void
TargetController::zeroPieces(std::shared_ptr<DsmJob> job, std::size_t idx,
                             std::size_t piece, std::uint8_t slot,
                             std::uint32_t base,
                             std::uint64_t chunk_blocks, std::uint64_t key,
                             std::function<void(Status)> done)
{
    const DsmChunk &dc = job->chunks[idx];
    if (piece >= dc.pieces.size()) {
        finishChunkOp(key, Status::Success);
        done(Status::Success);
        return;
    }
    const auto [off, blocks] = dc.pieces[piece];
    zeroPhysRange(
        slot, std::uint64_t(base) * chunk_blocks + off, blocks,
        [this, job, idx, piece, slot, base, chunk_blocks, key,
         done](bool ok) {
            if (!ok) {
                // The range was not (fully) zeroed; surface that in
                // the DSM status so nobody assumes zero reads.
                finishChunkOp(key, Status::NamespaceNotReady);
                done(Status::NamespaceNotReady);
                return;
            }
            zeroPieces(job, idx, piece + 1, slot, base, chunk_blocks,
                       key, done);
        });
}

std::unordered_map<std::uint64_t, std::uint64_t>
TargetController::drainHeat()
{
    std::unordered_map<std::uint64_t, std::uint64_t> out;
    out.swap(_heatBytes);
    return out;
}

void
TargetController::forwardFlush(FrontFunction &fn, const Sqe &sqe,
                               std::uint16_t sqid, NsBinding &binding)
{
    // Flush every back-end SSD this namespace has a chunk on.
    std::vector<bool> used(static_cast<std::size_t>(_engine.ssdSlots()),
                           false);
    const LbaMapGeometry &g = binding.map.geometry();
    for (std::uint32_t r = 0; r < g.rows; ++r)
        for (std::uint32_t c = 0; c < g.entriesPerRow; ++c)
            if (binding.map.entryValid(r, c))
                used[static_cast<std::size_t>(
                    binding.map.entrySlot(r, c))] = true;

    std::size_t targets = 0;
    for (bool u : used)
        targets += u ? 1 : 0;
    if (targets == 0) {
        fn.complete(sqid, sqe.cid, Status::Success);
        return;
    }

    auto remaining = std::make_shared<std::size_t>(targets);
    std::uint16_t cid = sqe.cid;
    for (int s = 0; s < _engine.ssdSlots(); ++s) {
        if (!used[s])
            continue;
        Sqe bsqe = sqe;
        bsqe.nsid = 1;
        HostAdaptor &ad = _engine.adaptor(s);
        if (!ad.ready()) {
            if (--*remaining == 0)
                fn.complete(sqid, cid, Status::NamespaceNotReady);
            continue;
        }
        ++_forwarded;
        ad.submitIo(bsqe, [this, &fn, sqid, cid,
                           remaining](const nvme::Cqe &cqe) {
            (void)cqe;
            if (--*remaining == 0) {
                schedule(_engine.config().completionPipelineDelay,
                         [&fn, sqid, cid] {
                             fn.complete(sqid, cid, Status::Success);
                         });
            }
        });
    }
}

} // namespace bms::core
