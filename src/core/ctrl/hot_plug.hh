/**
 * @file
 * Hot-plug manager — faulty back-end SSD replacement while the
 * front-end NVMe identities are preserved (paper §IV-D).
 *
 * During replacement BM-Store "reserves the front-end to the
 * tenants": the logical drives never disappear from the host, no
 * rescan happens, applications are not redeployed. The engine pauses
 * and drains I/O toward the slot, the SSD is physically swapped, the
 * host adaptor re-initializes the new device, mappings are retained
 * (chunks now point at the fresh disk; data restoration is the job of
 * a higher layer, as with any failed-disk replacement), and I/O
 * resumes.
 */

#ifndef BMS_CORE_CTRL_HOT_PLUG_HH
#define BMS_CORE_CTRL_HOT_PLUG_HH

#include <functional>
#include <set>

#include "core/ctrl/migration/migration_manager.hh"
#include "core/engine/bms_engine.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Orchestrates back-end SSD replacement. */
class HotPlugManager : public sim::SimObject
{
  public:
    struct Report
    {
        bool ok = false;
        sim::Tick ioPause = 0; ///< pause start → resume
        sim::Tick swapTime = 0;
        /** @name Lossless replacement only. */
        /// @{
        std::uint32_t evacuatedChunks = 0;
        sim::Tick evacTime = 0;
        /// @}
    };

    HotPlugManager(sim::Simulator &sim, std::string name, BmsEngine &engine)
        : SimObject(sim, std::move(name)), _engine(engine)
    {}

    /**
     * Replace the SSD in @p slot with @p replacement. @p done fires
     * once the new device serves I/O.
     *
     * Re-entrant safe: a replacement requested for a slot that is
     * already mid-replacement — or blocked by another maintenance
     * flow (see setSlotBlocked) — is rejected cleanly (@p done fires
     * asynchronously with ok=false) instead of detaching a disk out
     * from under the flow that owns the slot.
     */
    void
    replace(int slot, pcie::PcieDeviceIf &replacement,
            std::function<void(Report)> done)
    {
        if (!claimSlot(slot, done))
            return;
        replaceInner(slot, replacement,
                     [this, slot, done = std::move(done)](Report rep) {
                         _busy.erase(slot);
                         done(rep);
                     });
    }

    /** Wire the migration subsystem replaceLossless() evacuates
     *  through; the BMS-Controller does so when it is built. */
    void setLossless(MigrationManager &migration) { _migration = &migration; }

    /**
     * Lossless replacement: evacuate every chunk off @p slot through
     * the migration subsystem (tenant I/O keeps flowing and no data
     * is abandoned on the old disk), then run the ordinary swap on
     * the now-empty slot. The slot stays quiesced across the swap so
     * no chunk lands on it until the fresh disk serves I/O. A failed
     * evacuation leaves the disk untouched (report.ok = false).
     */
    void
    replaceLossless(int slot, pcie::PcieDeviceIf &replacement,
                    std::function<void(Report)> done)
    {
        if (!claimSlot(slot, done))
            return;
        _migration->evacuate(
            slot,
            [this, slot, &replacement,
             done = std::move(done)](MigrationManager::EvacReport ev) {
                if (!ev.ok) {
                    // Old disk untouched; operator can retry or force
                    // the destructive path explicitly. The failed
                    // evacuation released its own quiesce claim
                    // (keep_quiesced only holds on success).
                    Report rep;
                    rep.evacuatedChunks = ev.moved;
                    rep.evacTime = ev.elapsed;
                    _busy.erase(slot);
                    done(rep);
                    return;
                }
                replaceInner(slot, replacement,
                             [this, slot, ev,
                              done = std::move(done)](Report rep) {
                                 rep.evacuatedChunks = ev.moved;
                                 rep.evacTime = ev.elapsed;
                                 if (rep.ok)
                                     ++_lossless;
                                 _migration->releaseQuiesce(slot);
                                 _busy.erase(slot);
                                 done(rep);
                             });
            },
            /*keep_quiesced=*/true);
    }

    std::uint32_t replacementsCompleted() const { return _completed; }
    std::uint32_t losslessCompleted() const { return _lossless; }

    /** Rejected because the slot was already mid-replacement or
     *  blocked by another maintenance flow. */
    std::uint32_t replacementsRejected() const { return _rejected; }

    /** True while slot @p slot has a replacement in flight (the
     *  evacuation phase of a lossless replacement included). */
    bool replaceInProgress(int slot) const { return _busy.count(slot); }

    /**
     * External mutual exclusion: when the predicate says @p slot is
     * blocked (e.g. a firmware upgrade holds its I/O context stored),
     * replace()/replaceLossless() reject cleanly instead of swapping
     * the disk out from under the upgrade's admin commands.
     */
    void setSlotBlocked(std::function<bool(int)> blocked)
    {
        _slotBlocked = std::move(blocked);
    }

  private:
    /** Physical swap time (drive caddy exchange). */
    static constexpr sim::Tick kSwapDelay = sim::milliseconds(800);

    /** Claim per-slot exclusivity; on refusal fires @p done
     *  asynchronously with a default (ok=false) report. */
    bool
    claimSlot(int slot, std::function<void(Report)> &done)
    {
        if (_busy.count(slot) || (_slotBlocked && _slotBlocked(slot))) {
            ++_rejected;
            logWarn("replace rejected: slot ", slot,
                    _busy.count(slot) ? " already mid-replacement"
                                      : " owned by another flow");
            schedule(0, [done = std::move(done)] { done(Report{}); });
            return false;
        }
        _busy.insert(slot);
        return true;
    }

    /** The swap itself; callers own the _busy claim. */
    void
    replaceInner(int slot, pcie::PcieDeviceIf &replacement,
                 std::function<void(Report)> done)
    {
        auto report = std::make_shared<Report>();
        sim::Tick t0 = now();
        _engine.storeIoContext(slot, [this, slot, &replacement, t0,
                                      report, done = std::move(done)] {
            HostAdaptor &ad = _engine.adaptor(slot);
            ad.detachSsd();
            // Physical swap.
            schedule(kSwapDelay, [this, slot, &replacement, t0, report,
                                  done = std::move(done)] {
                report->swapTime = kSwapDelay;
                _engine.attachBackendSsd(
                    slot, replacement,
                    [this, slot, t0, report, done = std::move(done)] {
                        _engine.reloadIoContext(slot);
                        report->ok = true;
                        report->ioPause = now() - t0;
                        ++_completed;
                        done(*report);
                    });
            });
        });
    }

    BmsEngine &_engine;
    MigrationManager *_migration = nullptr;
    std::uint32_t _completed = 0;
    std::uint32_t _lossless = 0;
    std::uint32_t _rejected = 0;
    std::set<int> _busy;
    std::function<bool(int)> _slotBlocked;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_HOT_PLUG_HH
