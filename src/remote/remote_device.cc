#include "remote/remote_device.hh"

#include <utility>

namespace bms::remote {

using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Max requests awaiting a response at once; excess queue. */
constexpr int kClientWindow = 32;
/**
 * Response deadline per attempt, measured from the moment the request
 * message is handed to the link. Sized so a saturated pipe (a full
 * window of 2 MiB transfers queued on one 2.9 GB/s direction is
 * ~23 ms of serialization) never trips it.
 */
constexpr sim::Tick kRequestTimeout = sim::milliseconds(250);
/**
 * Retries after the first attempt before giving up. A command to a
 * dead node therefore fails after kRequestTimeout x (1 + kMaxRetries)
 * = 750 ms, the figure behind tier chunk moves capping their segment
 * retries at 2.
 */
constexpr int kMaxRetries = 2;

} // namespace

RemoteNvmeDevice::RemoteNvmeDevice(sim::Simulator &sim,
                                   const std::string &name,
                                   NetworkLink &link,
                                   StorageServer &server, int volume)
    : Endpoint(sim, name, "BMS-REMOTE-VOL",
               server.volumeBytes(volume) / nvme::kBlockSize),
      _link(link), _server(server), _volume(volume)
{
    registerStat("ios", [this] { return double(_ios); });
    registerStat("timeouts", [this] { return double(_timeouts); });
    registerStat("retries", [this] { return double(_retries); });
    registerStat("exhausted", [this] { return double(_exhausted); });
}

void
RemoteNvmeDevice::executeIo(const Sqe &sqe, std::uint16_t sqid)
{
    auto op = static_cast<IoOpcode>(sqe.opcode);
    if (op != IoOpcode::Read && op != IoOpcode::Write &&
        op != IoOpcode::Flush) {
        complete(sqid, sqe.cid, Status::InvalidOpcode);
        return;
    }
    if (op != IoOpcode::Flush && !checkRange(sqe, sqid))
        return;
    ++_ios;

    Flight f;
    f.sqe = sqe;
    f.sqid = sqid;
    f.isWrite = op == IoOpcode::Write;
    f.isFlush = op == IoOpcode::Flush;
    f.len = f.isFlush ? 0 : sqe.dataBytes();

    if (f.isFlush) {
        enqueue(std::move(f));
        return;
    }

    resolveSegments(sqe, [this, f = std::move(f)](
                             std::vector<nvme::DmaSegment> segs) mutable {
        f.segs = std::move(segs);
        f.data =
            std::make_shared<std::vector<std::uint8_t>>(f.len);
        if (f.isWrite) {
            // Gather the payload from upstream memory (host natively,
            // or chip memory when behind BM-Store), then go on the
            // wire with command + data. Copy the layout out before f
            // moves into the continuation (dmaSegments only reads it
            // during the call itself).
            std::vector<nvme::DmaSegment> layout = f.segs;
            std::uint8_t *p = f.data->data();
            auto cont = [this, f = std::move(f)]() mutable {
                enqueue(std::move(f));
            };
            dmaSegments(layout, false, p, std::move(cont));
            return;
        }
        enqueue(std::move(f));
    });
}

void
RemoteNvmeDevice::enqueue(Flight f)
{
    f.attempt = 1;
    _sendq.push_back(std::move(f));
    pump();
}

void
RemoteNvmeDevice::pump()
{
    while (_wireInflight < kClientWindow && !_sendq.empty()) {
        Flight f = std::move(_sendq.front());
        _sendq.pop_front();
        ++_wireInflight;
        sendAttempt(std::move(f));
    }
}

void
RemoteNvmeDevice::sendAttempt(Flight f)
{
    std::uint64_t id = _nextReq++;
    bool is_write = f.isWrite;
    bool is_read = !f.isWrite && !f.isFlush;
    std::uint64_t len = f.len;

    RemoteIo io;
    io.isWrite = f.isWrite;
    io.isFlush = f.isFlush;
    io.offset = f.sqe.slba() * nvme::kBlockSize;
    io.len = static_cast<std::uint32_t>(len);
    io.data = f.data;
    // Runs on the server when the request completes there; the
    // response message (and read data) then crosses the wire back.
    io.done = [this, id, is_read, len](bool ok) {
        std::uint64_t resp = pcie::kCqeBytes + (is_read && ok ? len : 0);
        _rxBytes += resp;
        _link.send(1, resp, [this, id, ok] { onResponse(id, ok); });
    };

    _pending.emplace(id, std::move(f));

    std::uint64_t req = pcie::kSqeBytes + (is_write ? len : 0);
    _txBytes += req;
    _link.send(0, req, [this, io = std::move(io)]() mutable {
        _server.execute(_volume, std::move(io));
    });
    schedule(kRequestTimeout, [this, id] { onTimeout(id); });
}

void
RemoteNvmeDevice::onResponse(std::uint64_t id, bool ok)
{
    auto it = _pending.find(id);
    if (it == _pending.end()) {
        // Abandoned after timeout: the command was retried (or has
        // already failed); drop the late response.
        ++_staleDrops;
        return;
    }
    Flight f = std::move(it->second);
    _pending.erase(it);
    finishFlight(std::move(f), ok);
}

void
RemoteNvmeDevice::onTimeout(std::uint64_t id)
{
    auto it = _pending.find(id);
    if (it == _pending.end())
        return; // Responded in time.
    ++_timeouts;
    Flight f = std::move(it->second);
    _pending.erase(it);
    if (f.attempt > kMaxRetries) {
        ++_exhausted;
        logWarn("remote request gave up after ", f.attempt,
                " attempts (len=", f.len, ")");
        finishFlight(std::move(f), false);
        return;
    }
    ++_retries;
    ++f.attempt;
    // The retry keeps its window slot; a fresh id fences off the
    // stale response should the original still be in flight.
    sendAttempt(std::move(f));
}

void
RemoteNvmeDevice::finishFlight(Flight f, bool ok)
{
    --_wireInflight;
    pump();
    if (!ok) {
        complete(f.sqid, f.sqe.cid, Status::DataTransferError);
        return;
    }
    if (f.isWrite || f.isFlush || f.len == 0) {
        complete(f.sqid, f.sqe.cid, Status::Success);
        return;
    }
    // Read: scatter the returned payload to the upstream buffers.
    auto data = f.data;
    auto segs = std::make_shared<std::vector<nvme::DmaSegment>>(
        std::move(f.segs));
    std::uint16_t sqid = f.sqid;
    std::uint16_t cid = f.sqe.cid;
    dmaSegments(*segs, true, data->data(), [this, data, segs, sqid, cid] {
        complete(sqid, cid, Status::Success);
    });
}

} // namespace bms::remote
