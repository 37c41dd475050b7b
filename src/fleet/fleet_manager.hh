/**
 * @file
 * FleetManager — the operator-grade control plane over N BM-Store
 * cards sharing one deterministic simulation.
 *
 * Three responsibilities (DESIGN.md §15):
 *
 *   - placement: admit tenant requests onto the card with the best
 *     chunk headroom, read through each card's `df` verb at admission
 *     time, honouring anti-affinity groups, thin-overcommit caps and
 *     the per-card function budget;
 *   - rolling ops: fleet-wide firmware hot-upgrades and lossless
 *     disk replacements, card by card and slot by slot, under a
 *     failure budget with pause/resume/abort semantics and a
 *     per-tenant availability gate;
 *   - fleet faults: correlated SSD fault windows, storage-node
 *     losses recovered through `failNode`, and upgrade storms that
 *     must bounce off the controllers' re-entrancy guard.
 *
 * Every operator action appends to a tick-stamped op trace whose FNV
 * hash is the fleet's determinism fingerprint: same seed, same
 * schedule → byte-identical trace.
 */

#ifndef BMS_FLEET_FLEET_MANAGER_HH
#define BMS_FLEET_FLEET_MANAGER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "harness/testbeds.hh"

namespace bms::fleet {

/** N cards, one simulation, one operator. */
class FleetManager
{
  public:
    explicit FleetManager(const FleetConfig &cfg);
    ~FleetManager();

    sim::Simulator &sim() { return *_sim; }
    const FleetConfig &config() const { return _cfg; }
    int cards() const { return static_cast<int>(_cards.size()); }
    harness::BmStoreTestbed &card(int i) { return *_cards.at(i); }

    /** Tenants admitted fleet-wide (successful placements). */
    int tenants() const { return _tenantCount; }
    int tenantsOn(int card) const;

    /**
     * Admit one tenant: query `df` on every card, pick the best
     * placement, create the namespace through the console and bring
     * up the tenant's NVMe driver. Pumps the simulation to
     * completion (admission is the operator's synchronous buy path;
     * call from outside event handlers only).
     *
     * Refusals (no capacity, anti-affinity unsatisfiable, function
     * budget exhausted, overcommit cap hit) return ok=false with the
     * reason — they are legal outcomes, not errors.
     */
    Placement admit(const TenantRequest &req);

    /** Driver of a placed tenant (for oracles/workloads). */
    host::NvmeDriver &tenantDriver(int card, std::uint8_t fn);

    /** @name Rolling operations. */
    /// @{
    /**
     * Start a wave. Ops run card by card (slot by slot within a
     * card) so at most one slot fleet-wide is ever degraded by the
     * wave itself. Asynchronous: pump the simulation until
     * waveState() leaves Running.
     */
    void startWave(const WaveConfig &cfg);

    /** Continue a Paused wave with @p freshBudget more failures. */
    void resumeWave(int freshBudget);

    /** Abandon a Paused wave. */
    void abortWave();

    WaveState waveState() const { return _wave.state; }
    const WaveReport &waveReport() const { return _wave; }

    /**
     * Per-tenant availability probe the wave gate calls after every
     * slot op; return the worst submit→complete gap observed so far
     * (the harness wires it to its workloads' maxCompletionGap).
     * Unset → the gate only counts verb failures.
     */
    void setAvailabilityProbe(std::function<sim::Tick()> probe)
    {
        _availabilityProbe = std::move(probe);
    }
    /// @}

    /** @name Fleet faults. */
    /// @{
    /**
     * Schedule a correlated failure drill: fault windows opened on
     * every hit card's SSDs at drill.at, closed at
     * drill.at + drill.duration, with optional node losses (failNode
     * verb) and an upgrade storm. onFaultWindow(card, open) lets the
     * harness excuse tenant errors on hit cards (oracle
     * setFaultsActive).
     */
    void scheduleDrill(const FaultDrill &drill);

    void setFaultWindowHook(std::function<void(int, bool)> hook)
    {
        _onFaultWindow = std::move(hook);
    }

    std::uint32_t nodeLossesRecovered() const { return _nodeLosses; }
    std::uint32_t stormRejections() const { return _stormRejections; }
    std::uint32_t faultWindowsOpened() const { return _faultWindows; }
    /** True once every drill-issued console verb has completed. */
    bool drillIdle() const { return _pendingDrillOps == 0; }
    /// @}

    /** @name Determinism fingerprint. */
    /// @{
    const std::vector<std::string> &trace() const { return _trace; }
    /** FNV-1a over the tick-stamped op trace. */
    std::uint64_t traceHash() const;
    /// @}

  private:
    struct TenantRecord
    {
        int card = -1;
        std::uint8_t fn = 0;
        std::uint32_t nsid = 0;
        int antiAffinityGroup = -1;
        bool thin = false;
        std::uint64_t chunks = 0; ///< logical chunks promised
        host::NvmeDriver *driver = nullptr;
    };

    struct CardState
    {
        int nextFn = 0; ///< next unassigned front-end function
        std::uint64_t logicalChunks = 0; ///< promised by admissions
        double committedIops = 0.0;      ///< sum of admitted limits
    };

    /** Collected `df` snapshot of one card. */
    struct DfSnapshot
    {
        bool valid = false;
        std::uint64_t totalChunks = 0;
        std::uint64_t freeChunks = 0;
        std::uint64_t logicalChunks = 0;
        bool anyQuiesced = false;
    };

    void record(const std::string &what);
    void pumpUntil(const std::function<bool()> &done,
                   sim::Tick timeout = sim::seconds(20));
    core::Eid ctrlEid(int card);

    // placement.cc
    std::vector<DfSnapshot> queryDfAll();
    int pickCard(const TenantRequest &req,
                 const std::vector<DfSnapshot> &df, std::string &why);

    // rolling.cc
    void waveNextOp();
    void waveOpDone(bool ok, double io_pause_ms,
                    std::uint64_t evacuated);

    // faults.cc
    void openDrillWindow(const FaultDrill &drill);
    void closeDrillWindow(const FaultDrill &drill);
    bool drillHits(const FaultDrill &drill, int card) const;

    FleetConfig _cfg;
    std::unique_ptr<sim::Simulator> _sim;
    std::vector<std::unique_ptr<harness::BmStoreTestbed>> _cards;
    std::vector<CardState> _cardState;
    std::vector<TenantRecord> _tenants;
    int _tenantCount = 0;

    WaveConfig _waveCfg;
    WaveReport _wave;
    int _waveCard = 0;
    int _waveSlot = 0;
    int _waveBudget = 0;
    sim::Tick _waveStart = 0;
    sim::Tick _worstGapSeen = 0;
    std::function<sim::Tick()> _availabilityProbe;

    std::function<void(int, bool)> _onFaultWindow;
    std::uint32_t _nodeLosses = 0;
    std::uint32_t _stormRejections = 0;
    std::uint32_t _faultWindows = 0;
    int _pendingDrillOps = 0;

    std::vector<std::string> _trace;
};

} // namespace bms::fleet

#endif // BMS_FLEET_FLEET_MANAGER_HH
