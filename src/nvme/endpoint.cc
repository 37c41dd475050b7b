#include "nvme/endpoint.hh"

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
                   std::string model, std::uint64_t ns_blocks,
                   sim::SparseMemory *store)
    : SimObject(sim, name),
      _ctrl(sim, name + ".ctrl", functionZero(std::move(model)), *this),
      _store(store)
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

Endpoint::Xfer &
Endpoint::xfer(Handle h)
{
    if (h >= _xfers.size())
        _xfers.resize(h + 1);
    if (!_xfers[h])
        _xfers[h] = std::make_unique<Xfer>(sim().pages());
    return *_xfers[h];
}

void
Endpoint::executeAdmin(Handle h)
{
    _ctrl.reject(h);
}

bool
Endpoint::checkRange(Handle h)
{
    const Sqe &s = sqe(h);
    const NamespaceInfo *ns = _ctrl.findNamespace(s.nsid);
    if (!ns) {
        complete(h, Status::InvalidNamespace);
        return false;
    }
    // Written so a huge SLBA cannot wrap the end of the range.
    if (s.slba() >= ns->sizeBlocks || s.nlb() > ns->sizeBlocks - s.slba()) {
        complete(h, Status::LbaOutOfRange);
        return false;
    }
    return true;
}

void
Endpoint::resolveSegments(Handle h, std::function<void()> next)
{
    Xfer &t = xfer(h);
    const Sqe &s = sqe(h);
    const std::uint64_t len = s.dataBytes();
    if (!needsPrpList(s.prp1, len)) {
        t.list.clear();
        t.segs = decodePrp(s.prp1, s.prp2, len, t.list, std::move(t.segs));
        next();
        return;
    }
    // Fetch the PRP list from upstream memory (host DRAM natively;
    // BMS-Engine chip memory when behind BM-Store).
    t.list.resize(prpPageCount(s.prp1, len) - 1);
    t.resolved = std::move(next);
    _ctrl.upstream()->dmaRead(
        s.prp2,
        static_cast<std::uint32_t>(t.list.size() * sizeof(std::uint64_t)),
        reinterpret_cast<std::uint8_t *>(t.list.data()), [this, h] {
            Xfer &t = xfer(h);
            const Sqe &s = sqe(h);
            t.segs = decodePrp(s.prp1, s.prp2, s.dataBytes(), t.list,
                               std::move(t.segs));
            std::function<void()> next = std::move(t.resolved);
            next();
        });
}

void
Endpoint::dmaSegments(Handle h, bool to_host, sim::DataOut buf,
                      std::function<void()> next)
{
    Xfer &t = xfer(h);
    t.toHost = to_host;
    t.media = nullptr;
    t.done = std::move(next);
    moveSegments(h, buf);
}

void
Endpoint::transfer(Handle h, bool to_host, std::uint64_t off,
                   std::function<void()> next)
{
    Xfer &t = xfer(h);
    t.toHost = to_host;
    t.media = _store;
    t.off = off;
    t.done = std::move(next);
    resolveSegments(h, [this, h] {
        Xfer &t = xfer(h);
        if (t.media && t.toHost)
            t.media->read(t.off, sqe(h).dataBytes(), {t.staged, 0});
        moveSegments(h, t.media ? sim::DataOut(t.staged, 0) : nullptr);
    });
}

void
Endpoint::moveSegments(Handle h, sim::DataOut buf)
{
    Xfer &t = xfer(h);
    BMS_ASSERT(!t.segs.empty(), "DMA with no PRP segments");
    pcie::PcieUpstreamIf &up = *_ctrl.upstream();
    t.left = t.segs.size();
    std::uint64_t off = 0;
    for (const DmaSegment &seg : t.segs) {
        if (t.toHost)
            up.dmaWrite(seg.addr, seg.len, buf + off,
                        [this, h] { segmentDone(h); });
        else
            up.dmaRead(seg.addr, seg.len, buf + off,
                       [this, h] { segmentDone(h); });
        off += seg.len;
    }
}

void
Endpoint::segmentDone(Handle h)
{
    Xfer &t = xfer(h);
    if (--t.left != 0)
        return;
    if (t.media) {
        if (!t.toHost)
            t.media->write(t.off, sqe(h).dataBytes(), {t.staged, 0});
        t.staged.clear();
    }
    std::function<void()> done = std::move(t.done);
    done();
}

} // namespace bms::nvme
