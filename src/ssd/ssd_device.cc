#include "ssd/ssd_device.hh"

#include <utility>
#include <vector>

namespace bms::ssd {

using nvme::AdminOpcode;
using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

SsdDevice::SsdDevice(sim::Simulator &sim, const std::string &name,
                     Config cfg)
    : Endpoint(sim, name,
               cfg.hddProfile ? cfg.hddProfile->model : cfg.profile.model,
               (cfg.hddProfile ? cfg.hddProfile->capacityBytes
                               : cfg.profile.capacityBytes) /
                   nvme::kBlockSize),
      _cfg(std::move(cfg)),
      _flash(sim.pages()),
      _fwRev(_cfg.hddProfile ? _cfg.hddProfile->firmwareRev
                             : _cfg.profile.firmwareRev)
{
    if (_cfg.hddProfile) {
        _media = std::make_unique<HddMediaModel>(sim, name + ".media",
                                                 *_cfg.hddProfile);
    } else {
        _media = std::make_unique<MediaModel>(sim, name + ".media",
                                              _cfg.profile);
    }
}

const std::string &
SsdDevice::firmwareRev() const
{
    return _fwRev;
}

std::uint16_t
SsdDevice::smartTemperatureK() const
{
    // 35 C idle floor; up to ~+35 C at full-interface load.
    double bytes = static_cast<double>(controller().readBytes() +
                                       controller().writeBytes());
    double secs = sim::toSec(now());
    double load = secs > 0.0 ? bytes / secs / 3.3e9 : 0.0; // 0..~1
    if (load > 1.0)
        load = 1.0;
    return static_cast<std::uint16_t>(273 + 35 + load * 35.0);
}

std::uint8_t
SsdDevice::smartPercentageUsed() const
{
    // Rated endurance for the P4510 2 TB class: ~2.6 PBW.
    double rated = 2.6e15;
    double used =
        static_cast<double>(controller().writeBytes()) / rated * 100.0;
    if (used > 255.0)
        used = 255.0;
    return static_cast<std::uint8_t>(used);
}

void
SsdDevice::hardReset(bool wipe_data)
{
    controller().regWrite(nvme::kRegCc, 0); // drop CC.EN → full disable
    if (wipe_data)
        _flash.clear();
}

void
SsdDevice::detached()
{
    Endpoint::detached();
    _flash.clear();
}

void
SsdDevice::executeIo(const Sqe &sqe, std::uint16_t sqid)
{
    // Injected latency spike: the command sits inside the drive (GC
    // stall, internal retry) before normal processing begins.
    if (_cfg.faults.latencySpikeRate > 0.0 &&
        sim().rng().chance(_cfg.faults.latencySpikeRate)) {
        ++_latencySpikes;
        schedule(_cfg.faults.latencySpikeDelay,
                 [this, sqe, sqid] { dispatchIo(sqe, sqid); });
        return;
    }
    dispatchIo(sqe, sqid);
}

void
SsdDevice::dispatchIo(const Sqe &sqe, std::uint16_t sqid)
{
    switch (static_cast<IoOpcode>(sqe.opcode)) {
      case IoOpcode::Read:
        doRead(sqe, sqid);
        return;
      case IoOpcode::Write:
        doWrite(sqe, sqid);
        return;
      case IoOpcode::Flush:
        doFlush(sqe, sqid);
        return;
      case IoOpcode::WriteZeroes:
        doWriteZeroes(sqe, sqid);
        return;
      default:
        complete(sqid, sqe.cid, Status::InvalidOpcode);
        return;
    }
}

void
SsdDevice::doRead(const Sqe &sqe, std::uint16_t sqid)
{
    if (!checkRange(sqe, sqid))
        return;
    if (_cfg.faults.readErrorRate > 0.0 &&
        sim().rng().chance(_cfg.faults.readErrorRate)) {
        // Unrecoverable media error: reported after a full media
        // access attempt, as real drives do.
        std::uint64_t bytes = sqe.dataBytes();
        _media->read(sqe.slba() * nvme::kBlockSize, bytes,
                     [this, sqe, sqid] {
                         ++_mediaErrors;
                         complete(sqid, sqe.cid, Status::DataTransferError);
                     });
        return;
    }
    std::uint64_t len = sqe.dataBytes();
    std::uint64_t media_off = sqe.slba() * nvme::kBlockSize;
    // Media access first; then the data is DMA'd to the host buffers.
    _media->read(media_off, len, [this, sqe, sqid, len, media_off] {
        resolveSegments(sqe, [this, sqe, sqid, len, media_off](
                                 std::vector<nvme::DmaSegment> segs) {
            dmaToHost(segs, _cfg.functionalData ? &_flash : nullptr,
                      media_off, len, [this, sqe, sqid] {
                          complete(sqid, sqe.cid, Status::Success);
                      });
        });
    });
}

void
SsdDevice::doWrite(const Sqe &sqe, std::uint16_t sqid)
{
    if (!checkRange(sqe, sqid))
        return;
    if (_cfg.faults.writeErrorRate > 0.0 &&
        sim().rng().chance(_cfg.faults.writeErrorRate)) {
        // Clean write failure: a full media access is attempted but
        // the stored bytes are left untouched (see FaultConfig).
        _media->write(sqe.slba() * nvme::kBlockSize, sqe.dataBytes(),
                      [this, sqe, sqid] {
                          ++_mediaErrors;
                          complete(sqid, sqe.cid, Status::DataTransferError);
                      });
        return;
    }
    std::uint64_t len = sqe.dataBytes();
    std::uint64_t media_off = sqe.slba() * nvme::kBlockSize;
    resolveSegments(sqe, [this, sqe, sqid, len, media_off](
                             std::vector<nvme::DmaSegment> segs) {
        dmaFromHost(segs, _cfg.functionalData ? &_flash : nullptr,
                    media_off, len, [this, sqe, sqid, len, media_off] {
                        _media->write(media_off, len, [this, sqe, sqid] {
                            complete(sqid, sqe.cid, Status::Success);
                        });
                    });
    });
}

void
SsdDevice::doWriteZeroes(const Sqe &sqe, std::uint16_t sqid)
{
    if (!checkRange(sqe, sqid))
        return;
    // FTL unmap: mark the range deallocated so reads return zeroes.
    // No data moves over the interface or to the media — the cost is
    // a mapping-table update, modelled with flush latency. Not subject
    // to write-error injection: the zero guarantee backing thin reads
    // must be unconditional (a real drive retries unmap internally).
    std::uint64_t off = sqe.slba() * nvme::kBlockSize;
    std::uint64_t len = sqe.dataBytes();
    if (_cfg.functionalData)
        _flash.clearRange(off, len);
    _media->flush([this, sqe, sqid] {
        complete(sqid, sqe.cid, Status::Success);
    });
}

void
SsdDevice::doFlush(const Sqe &sqe, std::uint16_t sqid)
{
    _media->flush([this, sqe, sqid] {
        complete(sqid, sqe.cid, Status::Success);
    });
}

void
SsdDevice::executeAdmin(const Sqe &sqe)
{
    switch (static_cast<AdminOpcode>(sqe.opcode)) {
      case AdminOpcode::FirmwareDownload:
        // The image is opaque and never read back: only the commit
        // that activates it has an effect.
        complete(0, sqe.cid, Status::Success);
        return;
      case AdminOpcode::FirmwareCommit: {
        if (_upgrading) {
            complete(0, sqe.cid, Status::NamespaceNotReady);
            return;
        }
        // Activation stalls the device: no new command fetching until
        // the new image boots. Inflight I/O has already completed by
        // the time the BMS hot-upgrade flow issues the commit.
        _upgrading = true;
        controller().pauseFetch();
        const auto &p = _cfg.profile;
        sim::Tick stall = static_cast<sim::Tick>(sim().rng().uniformInt(
            p.fwActivateMin, p.fwActivateMax));
        _lastActivation = stall;
        logInfo("firmware activation, stall ", sim::toMs(stall), " ms");
        schedule(stall, [this, sqe] {
            _upgrading = false;
            ++_fwActivations;
            _fwRev = "VDV10" + std::to_string(131 + _fwActivations);
            controller().resumeFetch();
            complete(0, sqe.cid, Status::Success);
        });
        return;
      }
      case AdminOpcode::GetLogPage: {
        // SMART / health page: zero-filled placeholder payload.
        auto data =
            std::make_shared<std::vector<std::uint8_t>>(nvme::kPageSize, 0);
        std::uint16_t cid = sqe.cid;
        controller().dmaToHost(sqe, data->data(), nvme::kPageSize,
                               [this, cid, data] {
                                   complete(0, cid, Status::Success);
                               });
        return;
      }
      default:
        complete(0, sqe.cid, Status::InvalidOpcode);
        return;
    }
}

} // namespace bms::ssd
