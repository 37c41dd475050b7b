#include "core/ctrl/hot_upgrade.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/check.hh"

namespace bms::core {

using nvme::AdminOpcode;
using nvme::Sqe;

namespace {

/** Engine context store and reload cost (ARM + FPGA handshake): the
 *  ~100 ms of BM-Store processing in Table IX. */
constexpr sim::Tick kStoreDelay = sim::milliseconds(50);
constexpr sim::Tick kReloadDelay = sim::milliseconds(50);
/** Firmware image transfer granularity per download command. */
constexpr std::uint32_t kDownloadChunk = 256 * 1024;

} // namespace

void
HotUpgradeManager::download(int slot, std::uint32_t offset,
                            std::uint32_t image_bytes,
                            std::function<void(bool)> then)
{
    if (offset >= image_bytes) {
        then(true);
        return;
    }
    std::uint32_t chunk = std::min(kDownloadChunk, image_bytes - offset);
    Sqe dl;
    dl.opcode = static_cast<std::uint8_t>(AdminOpcode::FirmwareDownload);
    dl.cdw10 = chunk / 4 - 1; // NUMD, 0-based dwords
    dl.cdw11 = offset / 4;
    _engine.adaptor(slot).adminCommand(
        dl, [this, slot, offset, chunk, image_bytes,
             then = std::move(then)](const nvme::Cqe &cqe) {
            if (!cqe.ok()) {
                then(false);
                return;
            }
            download(slot, offset + chunk, image_bytes, std::move(then));
        });
}

void
HotUpgradeManager::upgrade(int slot, std::uint32_t image_bytes,
                           std::function<void(Report)> done)
{
    BMS_ASSERT(validImageBytes(image_bytes), "firmware image of ",
               image_bytes, " bytes");
    if (!_engine.claimSlot(slot, SlotOwner::Upgrade)) {
        // A second upgrade would interleave two store/reload-context
        // sequences; a replacement may have the disk out of the caddy.
        ++_rejected;
        logWarn("upgrade rejected: slot ", slot, " owned by another flow");
        schedule(0, [done = std::move(done)] { done(Report{}); });
        return;
    }
    auto report = std::make_shared<Report>();
    sim::Tick t0 = now();

    // Step 1: store I/O context — pause affected front functions and
    // drain the adaptor, then charge the engine handshake cost.
    _engine.storeIoContext(slot, [this, slot, t0, report, image_bytes,
                                  done = std::move(done)]() mutable {
        schedule(kStoreDelay, [this, slot, t0, report, image_bytes,
                               done = std::move(done)]() mutable {
            report->storeContext = now() - t0;
            sim::Tick fw_start = now();

            // Step 2: firmware download + commit (SSD activation
            // stall happens inside the commit).
            download(slot, 0, image_bytes, [this, slot, fw_start, t0, report,
                                            done = std::move(done)](bool ok) {
                if (!ok) {
                    _engine.reloadIoContext(slot);
                    report->total = now() - t0;
                    _engine.releaseSlot(slot);
                    done(*report);
                    return;
                }
                Sqe commit;
                commit.opcode = static_cast<std::uint8_t>(
                    AdminOpcode::FirmwareCommit);
                commit.cdw10 = 0x3 << 3; // CA: activate immediately
                _engine.adaptor(slot).adminCommand(
                    commit,
                    [this, slot, fw_start, t0, report,
                     done = std::move(done)](const nvme::Cqe &cqe) {
                        report->ok = cqe.ok();
                        report->firmware = now() - fw_start;

                        // Step 3: reload I/O context and resume.
                        sim::Tick reload_start = now();
                        schedule(kReloadDelay,
                                 [this, slot, reload_start, t0, report,
                                  done = std::move(done)] {
                                     _engine.reloadIoContext(slot);
                                     report->reloadContext =
                                         now() - reload_start;
                                     report->total = now() - t0;
                                     report->ioPause = report->total;
                                     if (report->ok)
                                         ++_completed;
                                     _engine.releaseSlot(slot);
                                     done(*report);
                                 });
                    });
            });
        });
    });
}

} // namespace bms::core
