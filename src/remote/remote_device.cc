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
RemoteNvmeDevice::executeIo(Handle h)
{
    auto op = static_cast<IoOpcode>(sqe(h).opcode);
    if (op != IoOpcode::Read && op != IoOpcode::Write &&
        op != IoOpcode::Flush) {
        complete(h, Status::InvalidOpcode);
        return;
    }
    if (op != IoOpcode::Flush && !checkRange(h))
        return;
    ++_ios;
    if (h >= _wires.size())
        _wires.resize(h + 1);
    if (op == IoOpcode::Flush) {
        enqueue(h);
        return;
    }
    resolveSegments(h, [this, h] {
        Wire &w = _wires[h];
        w.data = std::make_shared<std::vector<std::uint8_t>>(
            sqe(h).dataBytes());
        if (static_cast<IoOpcode>(sqe(h).opcode) == IoOpcode::Write) {
            // Gather the payload from upstream memory (host natively,
            // or chip memory when behind BM-Store), then go on the
            // wire with command + data.
            dmaSegments(h, false, w.data->data(), [this, h] { enqueue(h); });
            return;
        }
        enqueue(h);
    });
}

void
RemoteNvmeDevice::enqueue(Handle h)
{
    _wires[h].attempt = 1;
    _sendq.push_back(h);
    pump();
}

void
RemoteNvmeDevice::pump()
{
    while (_wireInflight < kClientWindow && !_sendq.empty()) {
        Handle h = _sendq.front();
        _sendq.pop_front();
        ++_wireInflight;
        sendAttempt(h);
    }
}

void
RemoteNvmeDevice::sendAttempt(Handle h)
{
    const std::uint64_t id = (_nextReq++ << 32) | h;
    const Sqe &s = sqe(h);
    const auto op = static_cast<IoOpcode>(s.opcode);
    bool is_read = op == IoOpcode::Read;
    std::uint64_t len = op == IoOpcode::Flush ? 0 : s.dataBytes();

    RemoteIo io;
    io.isWrite = op == IoOpcode::Write;
    io.isFlush = op == IoOpcode::Flush;
    io.offset = s.slba() * nvme::kBlockSize;
    io.len = static_cast<std::uint32_t>(len);
    io.data = _wires[h].data;
    // Runs on the server when the request completes there; the
    // response message (and read data) then crosses the wire back.
    io.done = [this, id, is_read, len](bool ok) {
        std::uint64_t resp = pcie::kCqeBytes + (is_read && ok ? len : 0);
        _rxBytes += resp;
        _link.send(1, resp, [this, id, ok] { onResponse(id, ok); });
    };

    _wires[h].pending = id;

    std::uint64_t req = pcie::kSqeBytes + (io.isWrite ? len : 0);
    _txBytes += req;
    _link.send(0, req, [this, io = std::move(io)]() mutable {
        _server.execute(_volume, std::move(io));
    });
    schedule(kRequestTimeout, [this, id] { onTimeout(id); });
}

void
RemoteNvmeDevice::onResponse(std::uint64_t id, bool ok)
{
    const auto h = static_cast<Handle>(id);
    if (_wires[h].pending != id) {
        // Abandoned after timeout: the command was retried (or has
        // already failed); drop the late response.
        ++_staleDrops;
        return;
    }
    _wires[h].pending = 0;
    finishFlight(h, ok);
}

void
RemoteNvmeDevice::onTimeout(std::uint64_t id)
{
    const auto h = static_cast<Handle>(id);
    Wire &w = _wires[h];
    if (w.pending != id)
        return; // Responded in time.
    ++_timeouts;
    w.pending = 0;
    if (w.attempt > kMaxRetries) {
        ++_exhausted;
        logWarn("remote request gave up after ", w.attempt,
                " attempts (len=", w.data ? w.data->size() : 0, ")");
        finishFlight(h, false);
        return;
    }
    ++_retries;
    ++w.attempt;
    // The retry keeps its window slot; a fresh id fences off the
    // stale response should the original still be in flight.
    sendAttempt(h);
}

void
RemoteNvmeDevice::finishFlight(Handle h, bool ok)
{
    --_wireInflight;
    pump();
    if (!ok) {
        finish(h, Status::DataTransferError);
        return;
    }
    if (static_cast<IoOpcode>(sqe(h).opcode) != IoOpcode::Read) {
        finish(h, Status::Success);
        return;
    }
    // Read: scatter the returned payload to the upstream buffers.
    dmaSegments(h, true, _wires[h].data->data(),
                [this, h] { finish(h, Status::Success); });
}

void
RemoteNvmeDevice::finish(Handle h, Status st)
{
    _wires[h].data.reset();
    complete(h, st);
}

} // namespace bms::remote
