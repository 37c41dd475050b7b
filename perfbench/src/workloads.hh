/**
 * @file
 * The benchmark's three simulated worlds. Each constructor performs
 * the whole set-up (testbed or fleet build, namespaces, driver
 * bring-up, admissions, prefill); runTimed() then drives the timed
 * phase — load, drain and read-back sweeps — advancing the simulation
 * only through a Slicer.
 *
 * The benchmark seed drives only the benchmark's own generators (the
 * queue each fio tenant submits from, oracle tenants' op streams, the
 * monitor's poll phase); testbed, fleet and simulator seeds are fixed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "probe.hh"

namespace bms::fuzz {
class OracleDevice;
class TenantWorkload;
} // namespace bms::fuzz
namespace bms::harness {
class BmStoreTestbed;
} // namespace bms::harness
namespace bms::host {
class NvmeDriver;
} // namespace bms::host

namespace perfbench {

/** Command-line choices that shape a world. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
};

/** Known workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Advances a simulation for the timed phase: one `sim.loop` span and
 * one wall-time sample per slice, plus the event-queue high-water mark
 * seen at slice ends.
 */
class Slicer
{
  public:
    explicit Slicer(Tracer &t) : _tracer(t), _span(t.intern("sim.loop")) {}

    void run(bms::sim::Simulator &sim, Tick until);

    const std::vector<std::int64_t> &sliceNs() const { return _sliceNs; }
    std::size_t pendingMax() const { return _pendingMax; }

  private:
    Tracer &_tracer;
    std::uint32_t _span;
    std::vector<std::int64_t> _sliceNs;
    std::size_t _pendingMax = 0;
};

/** Outputs only the fleet world produces. */
struct FleetOutputs
{
    bms::fleet::WaveReport wave;
    Tick copyTicks = 0; ///< slices with a migration in flight
    LatencyHistogram verbRtt; ///< monitor ioStats round trips
    std::uint64_t verbsSent = 0;
    std::uint64_t verbsFailed = 0;
    std::vector<double> admitWallMs;
    std::vector<double> admitModelMs;
    std::uint64_t admitVerbs = 0;
    std::uint64_t traceHash = 0;
};

/** One oracle-verified tenant: decorator, oracle, load generator. */
struct VerifiedTenant
{
    int card = 0;
    std::uint8_t fn = 0;
    std::unique_ptr<TimedDevice> dev;
    bms::fuzz::OracleDevice *oracle = nullptr;
    bms::fuzz::TenantWorkload *load = nullptr;
};

/** One simulated world, set up by its constructor. */
class World
{
  public:
    virtual ~World() = default;

    virtual bms::sim::Simulator &sim() = 0;
    Probe &probe() { return *_probe; }

    /** Timed phase: load, drain, read-back sweeps. */
    virtual void runTimed(Slicer &slicer) = 0;

    /** Driver, CPU and memory part of a counter snapshot. */
    void snapshot(Snapshot &out);

    /** Blocks verified by the oracles so far. */
    std::uint64_t verifiedBlocks() const;

    /** Bytes of the oracle-verified windows. */
    std::uint64_t verifiedWindowBytes() const;

    /** Non-null for fleet_replace. */
    virtual const FleetOutputs *fleet() const { return nullptr; }

    /** Correctness violations found so far (empty when clean). */
    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

  protected:
    /** The cards whose hosts and SSDs the snapshot reads. */
    virtual std::vector<bms::harness::BmStoreTestbed *> cards() = 0;

    void violation(std::string what) { _violations.push_back(std::move(what)); }

    std::unique_ptr<Probe> _probe;
    std::vector<bms::host::NvmeDriver *> _drivers; ///< every tenant's
    std::vector<VerifiedTenant> _tenants;           ///< oracle tenants
    std::vector<std::string> _violations;
};

/** Build (set up) the world of @p opts.workload, traced by @p tracer. */
std::unique_ptr<World> makeWorld(const Options &opts, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
