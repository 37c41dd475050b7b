#include "ssd/ssd_device.hh"

#include <utility>

namespace bms::ssd {

using nvme::AdminOpcode;
using nvme::IoOpcode;
using nvme::Status;

SsdDevice::SsdDevice(sim::Simulator &sim, const std::string &name,
                     Config cfg)
    : Endpoint(sim, name,
               cfg.hddProfile ? cfg.hddProfile->model : cfg.profile.model,
               (cfg.hddProfile ? cfg.hddProfile->capacityBytes
                               : cfg.profile.capacityBytes) /
                   nvme::kBlockSize,
               cfg.functionalData ? &_flash : nullptr),
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
SsdDevice::executeIo(Handle h)
{
    // Injected latency spike: the command sits inside the drive (GC
    // stall, internal retry) before normal processing begins.
    if (_cfg.faults.latencySpikeRate > 0.0 &&
        sim().rng().chance(_cfg.faults.latencySpikeRate)) {
        ++_latencySpikes;
        schedule(_cfg.faults.latencySpikeDelay, [this, h] { dispatchIo(h); });
        return;
    }
    dispatchIo(h);
}

void
SsdDevice::dispatchIo(Handle h)
{
    switch (static_cast<IoOpcode>(sqe(h).opcode)) {
      case IoOpcode::Read:
        doReadWrite(h, false);
        return;
      case IoOpcode::Write:
        doReadWrite(h, true);
        return;
      case IoOpcode::Flush:
        _media->flush([this, h] { complete(h, Status::Success); });
        return;
      case IoOpcode::WriteZeroes:
        doWriteZeroes(h);
        return;
      default:
        complete(h, Status::InvalidOpcode);
        return;
    }
}

void
SsdDevice::doReadWrite(Handle h, bool write)
{
    if (!checkRange(h))
        return;
    const std::uint64_t off = sqe(h).slba() * nvme::kBlockSize;
    const std::uint64_t len = sqe(h).dataBytes();
    const double error_rate =
        write ? _cfg.faults.writeErrorRate : _cfg.faults.readErrorRate;
    if (error_rate > 0.0 && sim().rng().chance(error_rate)) {
        // Unrecoverable media error, reported after a full media access
        // attempt as real drives do. A failed write leaves the stored
        // bytes untouched (see FaultConfig).
        auto failed = [this, h] {
            ++_mediaErrors;
            complete(h, Status::DataTransferError);
        };
        if (write)
            _media->write(off, len, failed);
        else
            _media->read(off, len, failed);
        return;
    }
    if (write) {
        transfer(h, false, off, [this, h] {
            _media->write(transferOffset(h), sqe(h).dataBytes(),
                          [this, h] { complete(h, Status::Success); });
        });
        return;
    }
    // Media access first; then the data is DMA'd to the host buffers.
    _media->read(off, len, [this, h] {
        transfer(h, true, sqe(h).slba() * nvme::kBlockSize,
                 [this, h] { complete(h, Status::Success); });
    });
}

void
SsdDevice::doWriteZeroes(Handle h)
{
    if (!checkRange(h))
        return;
    // FTL unmap: mark the range deallocated so reads return zeroes.
    // No data moves over the interface or to the media — the cost is
    // a mapping-table update, modelled with flush latency. Not subject
    // to write-error injection: the zero guarantee backing thin reads
    // must be unconditional (a real drive retries unmap internally).
    if (_cfg.functionalData) {
        _flash.clearRange(sqe(h).slba() * nvme::kBlockSize,
                          sqe(h).dataBytes());
    }
    _media->flush([this, h] { complete(h, Status::Success); });
}

void
SsdDevice::executeAdmin(Handle h)
{
    switch (static_cast<AdminOpcode>(sqe(h).opcode)) {
      case AdminOpcode::FirmwareDownload:
        // The image is opaque and never read back: only the commit
        // that activates it has an effect.
        complete(h, Status::Success);
        return;
      case AdminOpcode::FirmwareCommit: {
        if (_upgrading) {
            complete(h, Status::NamespaceNotReady);
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
        logInfo("firmware activation, stall ", sim::toMs(stall), " ms");
        schedule(stall, [this, h] {
            _upgrading = false;
            ++_fwActivations;
            _fwRev = "VDV10" + std::to_string(131 + _fwActivations);
            controller().resumeFetch();
            complete(h, Status::Success);
        });
        return;
      }
      case AdminOpcode::GetLogPage:
        // SMART / health page: zero-filled placeholder payload.
        controller().sendPage(h, nullptr);
        return;
      default:
        complete(h, Status::InvalidOpcode);
        return;
    }
}

} // namespace bms::ssd
