#include "nvme/endpoint.hh"

#include <memory>
#include <utility>

#include "sim/check.hh"

namespace bms::nvme {

namespace {

ControllerModel::Config
functionZero(std::string model)
{
    ControllerModel::Config cfg;
    cfg.fn = 0;
    cfg.model = std::move(model);
    return cfg;
}

} // namespace

Endpoint::Endpoint(sim::Simulator &sim, const std::string &name,
                   std::string model, std::uint64_t ns_blocks)
    : SimObject(sim, name),
      _ctrl(sim, name + ".ctrl", functionZero(std::move(model)), *this)
{
    NamespaceInfo ns;
    ns.nsid = 1;
    ns.sizeBlocks = ns_blocks;
    _ctrl.addNamespace(ns);
}

void
Endpoint::mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                    std::uint64_t value)
{
    BMS_ASSERT_EQ(fn, 0, name(), " is single-function");
    _ctrl.regWrite(offset, value);
}

std::uint64_t
Endpoint::mmioRead(pcie::FunctionId fn, std::uint64_t offset)
{
    BMS_ASSERT_EQ(fn, 0, name(), " is single-function");
    return _ctrl.regRead(offset);
}

void
Endpoint::attached(pcie::PcieUpstreamIf &upstream)
{
    BMS_ASSERT(!_detached, name(), " was pulled; a pulled disk is never ",
               "attached again");
    _ctrl.setUpstream(&upstream);
}

void
Endpoint::detached()
{
    _detached = true;
}

void
Endpoint::executeAdmin(const Sqe &sqe)
{
    _ctrl.reject(sqe);
}

bool
Endpoint::checkRange(const Sqe &sqe, std::uint16_t sqid)
{
    const NamespaceInfo *ns = _ctrl.findNamespace(sqe.nsid);
    if (!ns) {
        complete(sqid, sqe.cid, Status::InvalidNamespace);
        return false;
    }
    // Written so a huge SLBA cannot wrap the end of the range.
    if (sqe.slba() >= ns->sizeBlocks ||
        sqe.nlb() > ns->sizeBlocks - sqe.slba()) {
        complete(sqid, sqe.cid, Status::LbaOutOfRange);
        return false;
    }
    return true;
}

void
Endpoint::resolveSegments(const Sqe &sqe,
                          std::function<void(std::vector<DmaSegment>)> then)
{
    std::uint64_t len = sqe.dataBytes();
    if (!needsPrpList(sqe.prp1, len)) {
        then(decodePrp(sqe.prp1, sqe.prp2, len, {}));
        return;
    }
    // Fetch the PRP list from upstream memory (host DRAM natively;
    // BMS-Engine chip memory when behind BM-Store).
    std::uint32_t entries = prpPageCount(sqe.prp1, len) - 1;
    auto raw = std::make_shared<std::vector<std::uint64_t>>(entries);
    _ctrl.upstream()->dmaRead(
        sqe.prp2, static_cast<std::uint32_t>(entries * sizeof(std::uint64_t)),
        reinterpret_cast<std::uint8_t *>(raw->data()),
        [sqe, len, raw, then = std::move(then)] {
            then(decodePrp(sqe.prp1, sqe.prp2, len, *raw));
        });
}

void
Endpoint::dmaSegments(const std::vector<DmaSegment> &segs, bool to_host,
                      sim::DataOut buf, std::function<void()> done)
{
    BMS_ASSERT(!segs.empty(), "DMA with no PRP segments");
    pcie::PcieUpstreamIf &up = *_ctrl.upstream();
    // One shared countdown: each segment's callback copies only the
    // pointer, never @p done.
    struct Countdown
    {
        std::size_t remaining;
        std::function<void()> done;
    };
    auto left = std::make_shared<Countdown>(
        Countdown{segs.size(), std::move(done)});
    auto fire = [left] {
        if (--left->remaining == 0)
            left->done();
    };
    std::uint64_t off = 0;
    for (const auto &seg : segs) {
        if (to_host)
            up.dmaWrite(seg.addr, seg.len, buf + off, fire);
        else
            up.dmaRead(seg.addr, seg.len, buf + off, fire);
        off += seg.len;
    }
}

void
Endpoint::dmaToHost(const std::vector<DmaSegment> &segs,
                    const sim::SparseMemory *media, std::uint64_t off,
                    std::uint64_t len, std::function<void()> done)
{
    if (!media) {
        dmaSegments(segs, true, nullptr, std::move(done));
        return;
    }
    auto data = std::make_shared<sim::SparseMemory>(sim().pages());
    media->read(off, len, {*data, 0});
    dmaSegments(segs, true, {*data, 0},
                [data, done = std::move(done)] { done(); });
}

void
Endpoint::dmaFromHost(const std::vector<DmaSegment> &segs,
                      sim::SparseMemory *media, std::uint64_t off,
                      std::uint64_t len, std::function<void()> done)
{
    if (!media) {
        dmaSegments(segs, false, nullptr, std::move(done));
        return;
    }
    auto data = std::make_shared<sim::SparseMemory>(sim().pages());
    dmaSegments(segs, false, {*data, 0},
                [media, off, len, data, done = std::move(done)] {
                    media->write(off, len, {*data, 0});
                    done();
                });
}

} // namespace bms::nvme
