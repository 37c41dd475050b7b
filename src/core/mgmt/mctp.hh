/**
 * @file
 * MCTP over PCIe — the out-of-band management transport of BM-Store
 * (paper §IV-A/§IV-D).
 *
 * Management Component Transport Protocol messages travel as PCIe
 * vendor-defined messages between a remote console (via the BMC) and
 * the MCTP endpoint on the BMS-Controller, bypassing the host OS
 * entirely. We model the DSP0236 packet format — endpoint ids,
 * SOM/EOM fragmentation with a 64-byte baseline payload, sequence
 * numbers — over a timed channel, plus reassembly at the endpoints.
 */

#ifndef BMS_CORE_MGMT_MCTP_HH
#define BMS_CORE_MGMT_MCTP_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hh"

namespace bms::core {

/** MCTP endpoint id. */
using Eid = std::uint8_t;

/** MCTP message types we carry. */
enum class MctpMsgType : std::uint8_t
{
    Control = 0x00,
    NvmeMi = 0x04, ///< NVMe Management Interface (DSP0235 binding)
};

/** One MCTP transport packet (fragment of a message). */
struct MctpPacket
{
    static constexpr std::size_t kMaxPayload = 64; // baseline MTU

    Eid dest = 0;
    Eid src = 0;
    bool som = false; ///< start of message
    bool eom = false; ///< end of message
    std::uint8_t seq = 0;
    MctpMsgType msgType = MctpMsgType::Control;
    std::vector<std::uint8_t> payload;
};

class MctpEndpoint;

/**
 * Timed bidirectional packet pipe (the PCIe VDM path through the
 * BMC). Latency covers VDM forwarding; bandwidth is modest — MCTP is
 * a control channel, and the paper notes its limited performance.
 */
class MctpChannel : public sim::SimObject
{
  public:
    /** @name Timing of the VDM control path. */
    /// @{
    static constexpr sim::Tick kLatency = sim::microseconds(15);
    static constexpr sim::Bandwidth kBandwidth =
        sim::Bandwidth::mbPerSec(30);
    /// @}

    MctpChannel(sim::Simulator &sim, std::string name)
        : SimObject(sim, std::move(name))
    {}

    /** Register an endpoint reachable through this channel. */
    void bind(MctpEndpoint &ep);

    /** Transmit @p pkt toward its destination endpoint. */
    void transmit(MctpPacket pkt);

    std::uint64_t packetsCarried() const { return _packets; }

  private:
    std::unordered_map<Eid, MctpEndpoint *> _endpoints;
    sim::Tick _busyUntil = 0;
    std::uint64_t _packets = 0;
};

/**
 * An MCTP endpoint: fragments outgoing messages, reassembles
 * incoming packets, delivers complete messages to a handler.
 */
class MctpEndpoint : public sim::SimObject
{
  public:
    using MessageHandler =
        std::function<void(Eid src, MctpMsgType type,
                           std::vector<std::uint8_t> msg)>;

    MctpEndpoint(sim::Simulator &sim, std::string name, Eid eid)
        : SimObject(sim, std::move(name)), _eid(eid)
    {}

    Eid eid() const { return _eid; }

    void attachChannel(MctpChannel &ch) { _channel = &ch; }

    void setHandler(MessageHandler h) { _handler = std::move(h); }

    /** Send a complete message (fragmented automatically). */
    void sendMessage(Eid dest, MctpMsgType type,
                     const std::vector<std::uint8_t> &msg);

    /** Called by the channel when a packet arrives. */
    void receivePacket(const MctpPacket &pkt);

    std::uint64_t messagesSent() const { return _sent; }
    std::uint64_t messagesReceived() const { return _received; }
    std::uint64_t reassemblyErrors() const { return _errors; }

  private:
    struct Assembly
    {
        bool active = false;
        std::uint8_t nextSeq = 0;
        MctpMsgType type = MctpMsgType::Control;
        std::vector<std::uint8_t> data;
    };

    Eid _eid;
    MctpChannel *_channel = nullptr;
    MessageHandler _handler;
    std::unordered_map<Eid, Assembly> _assembly;
    std::uint64_t _sent = 0;
    std::uint64_t _received = 0;
    std::uint64_t _errors = 0;
};

} // namespace bms::core

#endif // BMS_CORE_MGMT_MCTP_HH
