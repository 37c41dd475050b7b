/**
 * @file
 * Remote NVMe device — the initiator side of the remote-storage
 * extension. Exposes a standard NVMe controller (one function, one
 * namespace = one exported volume) whose media is a StorageServer
 * across a NetworkLink.
 *
 * Because it is an nvme::Endpoint and fetches its commands and data
 * through whatever PcieUpstreamIf it is attached to, it can sit (a)
 * in a host slot — a plain NVMe-oF-style initiator — or (b) in a
 * BMS-Engine back-end slot, giving BM-Store tenants remote volumes
 * behind the exact same front-end VFs, LBA mapping and QoS: the
 * paper's §VI-D "add remote storage support to cope with more storage
 * scenarios".
 *
 * Reads and writes are checked against the volume first: a bad
 * namespace or an LBA past the end completes locally (InvalidNamespace
 * / LbaOutOfRange) without going on the wire.
 *
 * The initiator keeps a bounded window of requests on the wire; each
 * request carries a unique id and is covered by a sim-clock timeout.
 * A timed-out request is retried (fresh id) a bounded number of
 * times, then completed with a transfer error — a dead storage node
 * therefore surfaces as command errors, never as a hang. Responses
 * for abandoned ids are dropped (retried writes carry identical
 * payloads, so duplicate execution is harmless).
 */

#ifndef BMS_REMOTE_REMOTE_DEVICE_HH
#define BMS_REMOTE_REMOTE_DEVICE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nvme/endpoint.hh"
#include "remote/network.hh"
#include "remote/storage_server.hh"
#include "sim/simulator.hh"

namespace bms::remote {

/** NVMe front end for one remote volume. */
class RemoteNvmeDevice : public nvme::Endpoint
{
  public:
    /**
     * @param link network link to the server (direction 0 = toward
     *        the server)
     * @param server the storage target
     * @param volume volume id previously created on the server
     */
    RemoteNvmeDevice(sim::Simulator &sim, const std::string &name,
                     NetworkLink &link, StorageServer &server, int volume);

    /** @name Protocol counters (tests, monitor). */
    /// @{
    std::uint64_t ios() const { return _ios; }
    /** Request-payload bytes handed to the link (dir 0). */
    std::uint64_t txBytes() const { return _txBytes; }
    /** Response-payload bytes handed to the link (dir 1). */
    std::uint64_t rxBytes() const { return _rxBytes; }
    std::uint64_t timeouts() const { return _timeouts; }
    std::uint64_t retries() const { return _retries; }
    /** Commands failed after exhausting every retry. */
    std::uint64_t exhausted() const { return _exhausted; }
    /** Responses that arrived after their request was abandoned. */
    std::uint64_t staleDrops() const { return _staleDrops; }
    int wireInflight() const { return _wireInflight; }
    /// @}

  protected:
    void executeIo(const nvme::Sqe &sqe, std::uint16_t sqid) override;

  private:
    /** One command in flight on (or queued for) the wire. */
    struct Flight
    {
        nvme::Sqe sqe;
        std::uint16_t sqid = 0;
        bool isWrite = false;
        bool isFlush = false;
        std::uint64_t len = 0;
        /** Payload: gathered for writes, filled by the server for reads. */
        std::shared_ptr<std::vector<std::uint8_t>> data;
        /** Upstream DMA layout, kept for the read scatter. */
        std::vector<nvme::DmaSegment> segs;
        int attempt = 0;
    };

    void enqueue(Flight f);
    void pump();
    void sendAttempt(Flight f);
    void onResponse(std::uint64_t id, bool ok);
    void onTimeout(std::uint64_t id);
    void finishFlight(Flight f, bool ok);

    NetworkLink &_link;
    StorageServer &_server;
    int _volume;

    std::deque<Flight> _sendq;
    std::unordered_map<std::uint64_t, Flight> _pending;
    std::uint64_t _nextReq = 1;
    int _wireInflight = 0;

    std::uint64_t _ios = 0;
    std::uint64_t _txBytes = 0;
    std::uint64_t _rxBytes = 0;
    std::uint64_t _timeouts = 0;
    std::uint64_t _retries = 0;
    std::uint64_t _exhausted = 0;
    std::uint64_t _staleDrops = 0;
};

} // namespace bms::remote

#endif // BMS_REMOTE_REMOTE_DEVICE_HH
