/**
 * @file
 * Hot-upgrade manager — SSD firmware upgrade without interrupting
 * tenant-visible local storage service (paper §IV-D, Fig. 15,
 * Table IX).
 *
 * Sequence: BMS-Controller tells the engine to *store I/O context*
 * (front-end fetching for affected functions pauses; the back-end
 * drains), downloads and commits the firmware through the host
 * adaptor's admin queue (the SSD stalls several seconds while
 * activating), then *reloads I/O context*. Tenant doorbells written
 * during the window simply latch; no command fails because the pause
 * is far shorter than the host NVMe I/O timeout (30 s).
 */

#ifndef BMS_CORE_CTRL_HOT_UPGRADE_HH
#define BMS_CORE_CTRL_HOT_UPGRADE_HH

#include <cstdint>
#include <functional>
#include <set>

#include "core/engine/bms_engine.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Orchestrates firmware hot-upgrades of back-end SSDs. */
class HotUpgradeManager : public sim::SimObject
{
  public:
    /** Timing breakdown of one upgrade (Table IX columns). */
    struct Report
    {
        bool ok = false;
        sim::Tick storeContext = 0;  ///< engine pause + drain
        sim::Tick firmware = 0;      ///< download + SSD activation
        sim::Tick reloadContext = 0; ///< engine resume
        sim::Tick total = 0;
        /** Tenant-visible I/O pause (pause start → resume). */
        sim::Tick ioPause = 0;

        /** BM-Store's own processing share (paper: ~100 ms). */
        sim::Tick
        bmsProcessing() const
        {
            return storeContext + reloadContext;
        }
    };

    HotUpgradeManager(sim::Simulator &sim, std::string name, BmsEngine &engine)
        : SimObject(sim, std::move(name)), _engine(engine)
    {}

    /** Largest firmware image accepted; callers send 4 KiB–4 MiB. */
    static constexpr std::uint32_t kMaxImageBytes = 16u << 20;

    /**
     * An image size the download can carry: not empty, whole dwords
     * (FirmwareDownload's NUMD counts dwords) and at most
     * kMaxImageBytes.
     */
    static constexpr bool
    validImageBytes(std::uint32_t bytes)
    {
        return bytes > 0 && bytes % 4 == 0 && bytes <= kMaxImageBytes;
    }

    /**
     * Upgrade the firmware of the SSD in back-end slot @p slot with an
     * opaque image of @p image_bytes, which validImageBytes() must
     * accept. @p done receives the timing report.
     *
     * Re-entrant safe: a second upgrade requested for a slot whose
     * upgrade is still in flight is rejected cleanly (@p done fires
     * asynchronously with ok=false) instead of interleaving two
     * store/reload sequences on the same engine context.
     */
    void upgrade(int slot, std::uint32_t image_bytes,
                 std::function<void(Report)> done);

    std::uint32_t upgradesCompleted() const { return _completed; }

    /** Rejected because the slot was already mid-upgrade (or blocked
     *  by another maintenance flow, see setSlotBlocked). */
    std::uint32_t upgradesRejected() const { return _rejected; }

    /** True while slot @p slot has an upgrade in flight. */
    bool upgradeInProgress(int slot) const { return _busy.count(slot); }

    /**
     * External mutual exclusion: when the predicate says @p slot is
     * blocked (e.g. a hot-plug replacement has it detached or
     * quiesced), upgrade() rejects cleanly instead of issuing admin
     * commands toward a slot whose disk may be out of the caddy.
     */
    void setSlotBlocked(std::function<bool(int)> blocked)
    {
        _slotBlocked = std::move(blocked);
    }

  private:
    void download(int slot, std::uint32_t offset, std::uint32_t image_bytes,
                  std::function<void(bool)> then);

    BmsEngine &_engine;
    std::uint32_t _completed = 0;
    std::uint32_t _rejected = 0;
    std::set<int> _busy;
    std::function<bool(int)> _slotBlocked;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_HOT_UPGRADE_HH
