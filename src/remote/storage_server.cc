#include "remote/storage_server.hh"

#include <utility>

namespace bms::remote {

namespace {

/** Target-side software cost per I/O (poll-mode target). */
constexpr sim::Tick kPerIoCost = sim::microsecondsF(1.5);
/** Largest I/O one request may carry (bounce-buffer size). */
constexpr std::uint32_t kMaxIoBytes = 2 * 1024 * 1024;
/** Bounce buffers (concurrent disk I/Os); excess requests queue. */
constexpr int kBounceBuffers = 64;

} // namespace

StorageServer::StorageServer(sim::Simulator &sim, std::string name,
                             Config cfg)
    : SimObject(sim, name), _cfg(cfg)
{
    _host = sim.make<host::HostSystem>(sim, name + ".machine");
    int ready = 0;
    for (int i = 0; i < cfg.ssdCount; ++i) {
        auto *disk = sim.make<ssd::SsdDevice>(
            sim, name + ".ssd" + std::to_string(i), cfg.ssd);
        pcie::RootPort &port = _host->addSlot(4);
        port.attach(*disk);
        host::NvmeDriver::Config dc;
        dc.profile = baselines::spdkBackendProfile();
        auto *drv = sim.make<host::NvmeDriver>(
            sim, name + ".nvme" + std::to_string(i), _host->memory(),
            _host->irq(), port, _host->cpus(), 0, dc);
        drv->init([&ready] { ++ready; });
        _ssds.push_back(disk);
        _drivers.push_back(drv);
    }
    _diskNextFree.assign(static_cast<std::size_t>(cfg.ssdCount), 0);
    for (int i = 0; i < kBounceBuffers; ++i)
        _freeBufs.push_back(_host->memory().alloc(kMaxIoBytes));
    // Bring-up happens at t=0 before any workload; drive it inline.
    sim::Tick deadline = sim.now() + sim::seconds(2);
    while (ready != cfg.ssdCount) {
        BMS_ASSERT_LT(sim.now(), deadline,
                      "storage server bring-up stuck");
        sim.runUntil(sim.now() + sim::milliseconds(1));
    }
    _ready = true;

    registerStat("served", [this] { return double(_served); });
    registerStat("dropped", [this] { return double(_dropped); });
}

int
StorageServer::addVolume(Volume v)
{
    BMS_ASSERT(v.disk >= 0 && v.disk < static_cast<int>(_drivers.size()),
               "volume references unknown disk ", v.disk);
    BMS_ASSERT_LE(v.offset + v.length,
                  _drivers[static_cast<std::size_t>(v.disk)]->capacityBytes(),
                  "volume extends past the disk");
    _volumes.push_back(v);
    auto &next = _diskNextFree[static_cast<std::size_t>(v.disk)];
    if (v.offset + v.length > next)
        next = v.offset + v.length;
    return static_cast<int>(_volumes.size()) - 1;
}

int
StorageServer::allocVolume(int disk, std::uint64_t length)
{
    BMS_ASSERT(disk >= 0 && disk < static_cast<int>(_drivers.size()),
               "allocVolume on unknown disk ", disk);
    std::uint64_t off = _diskNextFree[static_cast<std::size_t>(disk)];
    return addVolume(Volume{disk, off, length});
}

std::uint64_t
StorageServer::volumeBytes(int volume) const
{
    return _volumes.at(static_cast<std::size_t>(volume)).length;
}

void
StorageServer::execute(int volume, RemoteIo io)
{
    BMS_ASSERT(_ready, "I/O executed before server bring-up");
    if (_down || _dropNext > 0) {
        // Silent drop: the initiator discovers the loss by timeout.
        if (_dropNext > 0)
            --_dropNext;
        ++_dropped;
        return;
    }
    const Volume &vol = _volumes.at(static_cast<std::size_t>(volume));
    if (!io.isFlush && io.offset + io.len > vol.length) {
        io.done(false);
        return;
    }
    BMS_ASSERT_LE(io.len, kMaxIoBytes,
                  "remote I/O larger than the bounce buffer");
    ++_served;
    // Target-side software processing on the poll-mode core.
    sim::Tick start = _targetCore.reserve(now(), kPerIoCost);
    sim().scheduleAt(start + kPerIoCost,
                     [this, vol, io = std::move(io)]() mutable {
                         submitIo(vol, std::move(io));
                     });
}

void
StorageServer::submitIo(const Volume &vol, RemoteIo io)
{
    if (_freeBufs.empty()) {
        _bufWaiters.emplace_back(vol, std::move(io));
        return;
    }
    std::uint64_t buf = _freeBufs.back();
    _freeBufs.pop_back();
    startIo(vol, std::move(io), buf);
}

void
StorageServer::startIo(const Volume &vol, RemoteIo io, std::uint64_t buf)
{
    // Stage write payloads into server memory so the disk's DMA pulls
    // the real bytes (functional disks store them; timing-only disks
    // just pay the transfer cost).
    if (io.isWrite && io.data) {
        _host->memory().write(buf, io.len, io.data->data());
    }
    host::BlockRequest req;
    req.op = io.isFlush ? host::BlockRequest::Op::Flush
                        : (io.isWrite ? host::BlockRequest::Op::Write
                                      : host::BlockRequest::Op::Read);
    req.offset = vol.offset + io.offset;
    req.len = io.len;
    req.dataAddr = buf;
    auto shared = std::make_shared<RemoteIo>(std::move(io));
    req.done = [this, shared, buf](bool ok) {
        if (!shared->isWrite && !shared->isFlush && ok) {
            // Fill the initiator-provided buffer in place (the client
            // holds the same shared vector), or create one.
            if (!shared->data)
                shared->data = std::make_shared<std::vector<std::uint8_t>>(
                    shared->len);
            _host->memory().read(buf, shared->len, shared->data->data());
        }
        // Recycle the buffer (possibly into a queued request) before
        // completing, so completion fan-out can't starve the pool.
        if (_bufWaiters.empty()) {
            _freeBufs.push_back(buf);
        } else {
            auto [wvol, wio] = std::move(_bufWaiters.front());
            _bufWaiters.pop_front();
            startIo(wvol, std::move(wio), buf);
        }
        if (_down) {
            // The node died while the disk I/O was in flight: the
            // completion never makes it back onto the wire.
            ++_dropped;
            return;
        }
        shared->done(ok);
    };
    _drivers[static_cast<std::size_t>(vol.disk)]->submit(std::move(req));
}

} // namespace bms::remote
