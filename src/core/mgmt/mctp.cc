#include "core/mgmt/mctp.hh"

#include <utility>

namespace bms::core {

void
MctpChannel::bind(MctpEndpoint &ep)
{
    BMS_ASSERT(!_endpoints.count(ep.eid()),
               "duplicate EID ", ep.eid(), " on channel");
    _endpoints[ep.eid()] = &ep;
    ep.attachChannel(*this);
}

void
MctpChannel::transmit(MctpPacket pkt)
{
    auto it = _endpoints.find(pkt.dest);
    if (it == _endpoints.end()) {
        logWarn("MCTP packet to unknown EID ", static_cast<int>(pkt.dest));
        return;
    }
    ++_packets;
    // Serialize packets through the VDM path.
    std::uint64_t bytes = pkt.payload.size() + 12; // MCTP + VDM headers
    sim::Tick start = now() > _busyUntil ? now() : _busyUntil;
    _busyUntil = start + kBandwidth.delayFor(bytes);
    sim::Tick arrive = _busyUntil + kLatency;
    MctpEndpoint *dst = it->second;
    sim().scheduleAt(arrive, [dst, pkt = std::move(pkt)] {
        dst->receivePacket(pkt);
    });
}

void
MctpEndpoint::sendMessage(Eid dest, MctpMsgType type,
                          const std::vector<std::uint8_t> &msg)
{
    BMS_ASSERT(_channel, "endpoint not attached to a channel");
    ++_sent;
    std::size_t off = 0;
    std::uint8_t seq = 0;
    bool first = true;
    do {
        std::size_t chunk =
            std::min(MctpPacket::kMaxPayload, msg.size() - off);
        MctpPacket pkt;
        pkt.dest = dest;
        pkt.src = _eid;
        pkt.som = first;
        pkt.eom = (off + chunk == msg.size());
        pkt.seq = seq;
        pkt.msgType = type;
        pkt.payload.assign(msg.begin() + static_cast<std::ptrdiff_t>(off),
                           msg.begin() +
                               static_cast<std::ptrdiff_t>(off + chunk));
        _channel->transmit(std::move(pkt));
        off += chunk;
        seq = static_cast<std::uint8_t>((seq + 1) & 0x3); // 2-bit field
        first = false;
    } while (off < msg.size());
}

void
MctpEndpoint::receivePacket(const MctpPacket &pkt)
{
    Assembly &as = _assembly[pkt.src];
    if (pkt.som) {
        as.active = true;
        as.nextSeq = pkt.seq;
        as.type = pkt.msgType;
        as.data.clear();
    }
    if (!as.active || pkt.seq != as.nextSeq || pkt.msgType != as.type) {
        ++_errors;
        as.active = false;
        logWarn("MCTP reassembly error from EID ",
                static_cast<int>(pkt.src));
        return;
    }
    as.nextSeq = static_cast<std::uint8_t>((as.nextSeq + 1) & 0x3);
    as.data.insert(as.data.end(), pkt.payload.begin(), pkt.payload.end());
    if (pkt.eom) {
        as.active = false;
        ++_received;
        if (_handler)
            _handler(pkt.src, as.type, std::move(as.data));
        as.data.clear();
    }
}

} // namespace bms::core
