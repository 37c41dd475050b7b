/**
 * @file
 * Remote storage server — the target side of the remote-storage
 * extension. A self-contained machine (its own memory, interrupt
 * controller, CPU cores and PCIe slots) whose SSDs are exported as
 * volumes. Requests arrive over a NetworkLink; a poll-mode target
 * thread executes them against the local disks, exactly like an
 * NVMe-over-Fabrics target.
 */

#ifndef BMS_REMOTE_STORAGE_SERVER_HH
#define BMS_REMOTE_STORAGE_SERVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/spdk_vhost.hh"
#include "host/host_system.hh"
#include "host/nvme_driver.hh"
#include "sim/simulator.hh"
#include "ssd/ssd_device.hh"

namespace bms::remote {

/** One I/O as it crosses the wire (already deserialized). */
struct RemoteIo
{
    bool isWrite = false;
    bool isFlush = false;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    /**
     * Functional payload: carried with the request for writes, filled
     * by the server for successful reads. Null for flushes and
     * timing-only traffic (the server then moves no real bytes).
     */
    std::shared_ptr<std::vector<std::uint8_t>> data;
    /** Completion with success flag (runs on the server side). */
    std::function<void(bool)> done;
};

/** The target machine. */
class StorageServer : public sim::SimObject
{
  public:
    struct Config
    {
        int ssdCount = 1;
        ssd::SsdDevice::Config ssd;
    };

    StorageServer(sim::Simulator &sim, std::string name, Config cfg);

    /** Export a volume: a byte window of one local disk. */
    struct Volume
    {
        int disk = 0;
        std::uint64_t offset = 0;
        std::uint64_t length = 0;
    };

    int addVolume(Volume v);

    /**
     * Carve the next free @p length bytes of @p disk into a volume
     * (sequential allocation; asserts when the disk is exhausted).
     */
    int allocVolume(int disk, std::uint64_t length);

    std::uint64_t volumeBytes(int volume) const;

    /**
     * Execute @p io against volume @p volume (called when a request
     * message has fully arrived).
     */
    void execute(int volume, RemoteIo io);

    /**
     * Node loss: while down the server silently drops every request,
     * and completions of I/Os already at the disks are swallowed —
     * the initiator only ever finds out via its own timeout.
     */
    void setDown(bool down) { _down = down; }
    bool down() const { return _down; }

    /** Silently drop the next @p n requests (timeout/retry tests). */
    void dropNext(int n) { _dropNext += n; }

    host::HostSystem &machine() { return *_host; }
    ssd::SsdDevice &disk(int i) { return *_ssds.at(i); }
    std::uint64_t requestsServed() const { return _served; }
    std::uint64_t requestsDropped() const { return _dropped; }

  private:
    void submitIo(const Volume &vol, RemoteIo io);
    void startIo(const Volume &vol, RemoteIo io, std::uint64_t buf);

    Config _cfg;
    host::HostSystem *_host = nullptr;
    std::vector<ssd::SsdDevice *> _ssds;
    std::vector<host::NvmeDriver *> _drivers;
    std::vector<Volume> _volumes;
    std::vector<std::uint64_t> _diskNextFree;
    host::CpuCore _targetCore;
    /** Free bounce buffers + requests waiting for one. */
    std::vector<std::uint64_t> _freeBufs;
    std::deque<std::pair<Volume, RemoteIo>> _bufWaiters;
    std::uint64_t _served = 0;
    std::uint64_t _dropped = 0;
    bool _ready = false;
    bool _down = false;
    int _dropNext = 0;
};

} // namespace bms::remote

#endif // BMS_REMOTE_STORAGE_SERVER_HH
