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
#include <memory>

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

    /** replaceLossless() evacuates through @p migration and holds
     *  the slot's pool in @p ns quiesced. */
    HotPlugManager(sim::Simulator &sim, std::string name, BmsEngine &engine,
                   MigrationManager &migration, NamespaceManager &ns)
        : SimObject(sim, std::move(name)), _engine(engine),
          _migration(migration), _ns(ns)
    {}

    /**
     * Replace the SSD in @p slot with @p replacement. @p done fires
     * once the new device serves I/O.
     *
     * The replacement claims the slot in the engine
     * (SlotOwner::Replace) until it reports. A slot another flow
     * holds — an upgrade or a second replacement — is refused
     * cleanly (@p done fires asynchronously with ok=false) instead of
     * detaching a disk out from under that flow.
     */
    void
    replace(int slot, pcie::PcieDeviceIf &replacement,
            std::function<void(Report)> done)
    {
        if (!claim(slot, done))
            return;
        replaceInner(slot, replacement,
                     [this, slot, done = std::move(done)](Report rep) {
                         _engine.releaseSlot(slot);
                         done(rep);
                     });
    }

    /**
     * Lossless replacement: evacuate every chunk off @p slot through
     * the migration subsystem (tenant I/O keeps flowing and no data
     * is abandoned on the old disk), then run the ordinary swap on
     * the now-empty slot. The slot stays quiesced from before the
     * evacuation until the fresh disk serves I/O, so no chunk lands
     * on it in between. A failed evacuation — a chunk that would not
     * move, or one the slot still holds — leaves the disk untouched
     * (report.ok = false).
     */
    void
    replaceLossless(int slot, pcie::PcieDeviceIf &replacement,
                    std::function<void(Report)> done)
    {
        if (!claim(slot, done))
            return;
        _ns.quiesceAcquire(slot);
        auto evacuated = [this, slot, &replacement, done = std::move(done)](
                             MigrationManager::EvacReport ev) {
            auto finish = [this, slot, ev, done](Report rep) {
                rep.evacuatedChunks = ev.moved;
                rep.evacTime = ev.elapsed;
                if (rep.ok)
                    ++_lossless;
                _ns.quiesceRelease(slot);
                _engine.releaseSlot(slot);
                done(rep);
            };
            // Old disk untouched on failure; the operator can retry or
            // force the destructive path explicitly.
            if (ev.ok)
                replaceInner(slot, replacement, finish);
            else
                finish(Report{});
        };
        _migration.evacuate(slot, std::move(evacuated));
    }

    std::uint32_t replacementsCompleted() const { return _completed; }
    std::uint32_t losslessCompleted() const { return _lossless; }

    /** Rejected because another flow owned the slot. */
    std::uint32_t replacementsRejected() const { return _rejected; }

  private:
    /** Physical swap time (drive caddy exchange). */
    static constexpr sim::Tick kSwapDelay = sim::milliseconds(800);

    /** Claim @p slot for a replacement; on refusal fires @p done
     *  asynchronously with a default (ok=false) report. */
    bool
    claim(int slot, std::function<void(Report)> &done)
    {
        if (_engine.claimSlot(slot, SlotOwner::Replace))
            return true;
        ++_rejected;
        logWarn("replace rejected: slot ", slot, " owned by another flow");
        schedule(0, [done = std::move(done)] { done(Report{}); });
        return false;
    }

    /** The swap itself; callers own the slot claim. */
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
    MigrationManager &_migration;
    NamespaceManager &_ns;
    std::uint32_t _completed = 0;
    std::uint32_t _lossless = 0;
    std::uint32_t _rejected = 0;
};

} // namespace bms::core

#endif // BMS_CORE_CTRL_HOT_PLUG_HH
