#include "ssd/zns.hh"

#include <cstring>
#include <utility>

namespace bms::ssd {

using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Blocks covered by the whole zones that fit the profile's capacity. */
std::uint64_t
zonedBlocks(const ZnsProfile &p)
{
    return p.media.capacityBytes / p.zoneBytes *
           (p.zoneBytes / nvme::kBlockSize);
}

} // namespace

ZnsSsd::ZnsSsd(sim::Simulator &sim, const std::string &name, Config cfg)
    : Endpoint(sim, name, "BMS-ZNS-SIM", zonedBlocks(cfg.profile),
               cfg.functionalData ? &_flash : nullptr),
      _cfg(std::move(cfg)),
      _media(std::make_unique<MediaModel>(sim, name + ".media",
                                          _cfg.profile.media)),
      _flash(sim.pages()),
      _zoneBlocks(_cfg.profile.zoneBytes / nvme::kBlockSize),
      _zones(_cfg.profile.media.capacityBytes / _cfg.profile.zoneBytes)
{}

void
ZnsSsd::detached()
{
    Endpoint::detached();
    _flash.clear();
}

ZoneState
ZnsSsd::zoneState(std::uint64_t zone) const
{
    return _zones.at(zone).state;
}

std::uint64_t
ZnsSsd::writePointer(std::uint64_t zone) const
{
    return zone * _zoneBlocks + _zones.at(zone).wp;
}

void
ZnsSsd::completeZns(Handle h, ZnsStatus st)
{
    complete(h, static_cast<Status>(st));
}

void
ZnsSsd::executeIo(Handle h)
{
    switch (sqe(h).opcode) {
      case static_cast<std::uint8_t>(IoOpcode::Read):
        doRead(h);
        return;
      case static_cast<std::uint8_t>(IoOpcode::Write):
        doWrite(h, /*is_append=*/false);
        return;
      case kOpZoneAppend:
        doWrite(h, /*is_append=*/true);
        return;
      case kOpZoneMgmtSend:
        doZoneMgmtSend(h);
        return;
      case kOpZoneMgmtRecv:
        doZoneMgmtRecv(h);
        return;
      case static_cast<std::uint8_t>(IoOpcode::Flush):
        _media->flush([this, h] { complete(h, Status::Success); });
        return;
      default:
        complete(h, Status::InvalidOpcode);
        return;
    }
}

void
ZnsSsd::doRead(Handle h)
{
    if (!checkRange(h))
        return;
    const Sqe &s = sqe(h);
    std::uint64_t end = s.slba() + s.nlb();
    // Reads may not cross a zone boundary (spec default).
    if (s.slba() / _zoneBlocks != (end - 1) / _zoneBlocks) {
        completeZns(h, ZnsStatus::ZoneBoundaryError);
        return;
    }
    _media->read(s.slba() * nvme::kBlockSize, s.dataBytes(), [this, h] {
        transfer(h, true, sqe(h).slba() * nvme::kBlockSize,
                 [this, h] { complete(h, Status::Success); });
    });
}

bool
ZnsSsd::openZone(Zone &z, bool explicit_open)
{
    if (z.state == ZoneState::ImplicitlyOpen ||
        z.state == ZoneState::ExplicitlyOpen) {
        return true;
    }
    if (_openZones >= _cfg.profile.maxOpenZones)
        return false;
    bool was_active =
        z.state == ZoneState::Closed; // already counted active
    if (!was_active) {
        if (_activeZones >= _cfg.profile.maxActiveZones)
            return false;
        ++_activeZones;
    }
    ++_openZones;
    z.state = explicit_open ? ZoneState::ExplicitlyOpen
                            : ZoneState::ImplicitlyOpen;
    return true;
}

void
ZnsSsd::closeZone(Zone &z)
{
    if (z.state == ZoneState::ImplicitlyOpen ||
        z.state == ZoneState::ExplicitlyOpen) {
        --_openZones;
        z.state = ZoneState::Closed; // stays active
    }
}

void
ZnsSsd::finishZone(Zone &z)
{
    if (z.state == ZoneState::ImplicitlyOpen ||
        z.state == ZoneState::ExplicitlyOpen) {
        --_openZones;
        --_activeZones;
    } else if (z.state == ZoneState::Closed) {
        --_activeZones;
    }
    z.state = ZoneState::Full;
    z.wp = _zoneBlocks;
}

void
ZnsSsd::resetZone(std::uint64_t zone_idx)
{
    Zone &z = _zones[zone_idx];
    if (z.state == ZoneState::ImplicitlyOpen ||
        z.state == ZoneState::ExplicitlyOpen) {
        --_openZones;
        --_activeZones;
    } else if (z.state == ZoneState::Closed) {
        --_activeZones;
    }
    z.state = ZoneState::Empty;
    z.wp = 0;
    // A reset zone's previous contents are gone.
    if (_cfg.functionalData) {
        _flash.clearRange(zone_idx * _zoneBlocks * nvme::kBlockSize,
                          _zoneBlocks * nvme::kBlockSize);
    }
}

void
ZnsSsd::doWrite(Handle h, bool is_append)
{
    if (!checkRange(h))
        return;
    const Sqe &s = sqe(h);
    std::uint64_t slba = s.slba();
    std::uint32_t blocks = s.nlb();
    std::uint64_t zone_idx = slba / _zoneBlocks;
    Zone &z = _zones[zone_idx];

    if (is_append) {
        // Zone Append: slba must name the zone start; the device
        // assigns the actual LBA (returned in CQE dw0).
        if (slba % _zoneBlocks != 0) {
            completeZns(h, ZnsStatus::ZoneInvalidWrite);
            return;
        }
    } else if (slba != zone_idx * _zoneBlocks + z.wp) {
        // Regular writes must land exactly on the write pointer.
        completeZns(h, ZnsStatus::ZoneInvalidWrite);
        return;
    }
    if (z.state == ZoneState::Full ||
        z.wp + blocks > _zoneBlocks) {
        completeZns(h, z.state == ZoneState::Full
                           ? ZnsStatus::ZoneIsFull
                           : ZnsStatus::ZoneBoundaryError);
        return;
    }
    if (!openZone(z, /*explicit_open=*/false)) {
        completeZns(h, ZnsStatus::TooManyOpenZones);
        return;
    }

    std::uint64_t assigned = zone_idx * _zoneBlocks + z.wp;
    z.wp += blocks;
    if (z.wp == _zoneBlocks)
        finishZone(z);

    // Fetch the payload, commit to media, complete (dw0 = assigned
    // LBA for appends).
    transfer(h, false, assigned * nvme::kBlockSize, [this, h] {
        _media->write(transferOffset(h), sqe(h).dataBytes(), [this, h] {
            const std::uint64_t lba = transferOffset(h) / nvme::kBlockSize;
            complete(h, Status::Success,
                     sqe(h).opcode == kOpZoneAppend
                         ? static_cast<std::uint32_t>(lba)
                         : 0);
        });
    });
}

void
ZnsSsd::doZoneMgmtSend(Handle h)
{
    const Sqe &s = sqe(h);
    std::uint64_t zone_idx = s.slba() / _zoneBlocks;
    if (zone_idx >= _zones.size()) {
        complete(h, Status::LbaOutOfRange);
        return;
    }
    auto action = static_cast<ZoneAction>(s.cdw13 & 0xff);
    Zone &z = _zones[zone_idx];
    switch (action) {
      case ZoneAction::Reset:
        resetZone(zone_idx);
        break;
      case ZoneAction::Open:
        if (!openZone(z, /*explicit_open=*/true)) {
            completeZns(h, ZnsStatus::TooManyOpenZones);
            return;
        }
        break;
      case ZoneAction::Close:
        closeZone(z);
        break;
      case ZoneAction::Finish:
        finishZone(z);
        break;
      default:
        complete(h, Status::InvalidField);
        return;
    }
    complete(h, Status::Success);
}

void
ZnsSsd::doZoneMgmtRecv(Handle h)
{
    // Report Zones: 64-byte descriptors starting at the zone that
    // contains SLBA, as many as fit the (single-page) buffer.
    std::uint64_t first = sqe(h).slba() / _zoneBlocks;
    if (first >= _zones.size()) {
        complete(h, Status::LbaOutOfRange);
        return;
    }
    std::uint32_t max_desc = nvme::kPageSize / 64;
    std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_desc, _zones.size() - first));
    std::uint8_t buf[nvme::kPageSize] = {};
    for (std::uint32_t i = 0; i < count; ++i) {
        const Zone &z = _zones[first + i];
        std::uint8_t *d = buf + i * 64ull;
        d[0] = 0x2; // zone type: sequential-write-required
        d[1] = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(z.state) << 4);
        std::uint64_t zslba = (first + i) * _zoneBlocks;
        std::uint64_t zcap = _zoneBlocks;
        std::uint64_t wp = zslba + z.wp;
        std::memcpy(d + 8, &zcap, 8);
        std::memcpy(d + 16, &zslba, 8);
        std::memcpy(d + 24, &wp, 8);
    }
    controller().sendPage(h, buf);
}

} // namespace bms::ssd
