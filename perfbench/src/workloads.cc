#include "workloads.hh"

#include <algorithm>
#include <deque>

#include "fleet/fleet_manager.hh"
#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

namespace perfbench {

using namespace bms;

namespace {

/**
 * Simulated length of the timed load per wall second asked for. Set so
 * the timed phase of a RelWithDebInfo build takes about --seconds of
 * wall time on a 4-core x86 VM; fixed, so simulated work depends only
 * on --seconds and never on the host's speed.
 */
constexpr Tick kFanoutSimPerWallSecond = sim::milliseconds(100);
constexpr Tick kVerifiedSimPerWallSecond = sim::milliseconds(300);

/** Simulated length of one Slicer step. */
constexpr Tick kSlice = sim::milliseconds(1);

/** Simulated time a phase may overrun before it counts as hung. */
constexpr Tick kHangBound = sim::seconds(30);

constexpr std::uint32_t kBlock = 4096;

/** Per-workload salts: one --seed gives each workload its own stream. */
constexpr std::uint64_t kFanoutSalt = 0xfa'0b'7e'adULL;
constexpr std::uint64_t kVerifiedSalt = 0x7e'21'f1'edULL;
constexpr std::uint64_t kFleetSalt = 0xf1'ee'75'ebULL;

/**
 * One pass over a whole oracle window at bounded depth: stamped writes
 * (prefill) or verified reads (read-back sweep: timed, not sampled).
 */
class Pass
{
  public:
    static constexpr int kDepth = 16;

    Pass(fuzz::OracleDevice &oracle, TimedDevice &dev, bool write)
        : _oracle(oracle), _dev(dev), _write(write)
    {}

    void start() { pump(); }
    bool done() const { return _inflight == 0 && _next >= _oracle.blocks(); }
    std::uint64_t failed() const { return _failed; }

  private:
    void
    pump()
    {
        std::uint32_t step = _oracle.maxIoBlocks();
        while (_inflight < kDepth && _next < _oracle.blocks()) {
            auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(step, _oracle.blocks() - _next));
            std::uint64_t b = _next;
            _next += n;
            ++_inflight;
            auto done = [this](bool ok) {
                --_inflight;
                if (!ok)
                    ++_failed;
                pump();
            };
            _dev.setSweeping(true);
            if (_write)
                _oracle.write(b, n, done);
            else
                _oracle.read(b, n, done);
            _dev.setSweeping(false);
        }
    }

    fuzz::OracleDevice &_oracle;
    TimedDevice &_dev;
    bool _write;
    std::uint64_t _next = 0;
    int _inflight = 0;
    std::uint64_t _failed = 0;
};

/** Builds the oracle and load generator of one tenant on @p drv. */
VerifiedTenant
makeVerifiedTenant(sim::Simulator &sim, Probe &probe, host::HostMemory &mem,
                   fuzz::OpLog &log, host::BlockDeviceIf &drv, int index,
                   std::uint64_t window, const fuzz::TenantSpec &spec,
                   sim::Rng rng, std::uint64_t seed, std::uint32_t span)
{
    VerifiedTenant t;
    t.dev = std::make_unique<TimedDevice>(probe, drv, index, span);
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = static_cast<std::uint32_t>(index + 1);
    ocfg.regionBytes = window;
    ocfg.maxIoBytes = spec.maxIoBlocks * kBlock;
    ocfg.seed = seed;
    std::string idx = std::to_string(index);
    t.oracle = sim.make<fuzz::OracleDevice>(sim, "perfbench.oracle" + idx,
                                            *t.dev, mem, log, ocfg);
    t.load = sim.make<fuzz::TenantWorkload>(
        sim, "perfbench.tenant" + idx, *t.oracle, rng, spec);
    return t;
}

/**
 * One Pass per tenant, run to completion: through @p slicer in the
 * timed phase, in plain untimed slices when it is null (set-up).
 * Returns the number of failed requests and unfinished passes.
 */
std::uint64_t
passAll(sim::Simulator &sim, std::vector<VerifiedTenant> &tenants,
        bool write, Slicer *slicer)
{
    std::deque<Pass> passes;
    for (VerifiedTenant &t : tenants)
        passes.emplace_back(*t.oracle, *t.dev, write).start();
    auto done = [&passes] {
        return std::all_of(passes.begin(), passes.end(),
                           [](const Pass &p) { return p.done(); });
    };
    Tick deadline = sim.now() + kHangBound;
    while (!done() && sim.now() < deadline) {
        if (slicer)
            slicer->run(sim, sim.now() + kSlice);
        else
            sim.runUntil(sim.now() + kSlice);
    }
    std::uint64_t failures = 0;
    for (const Pass &p : passes)
        failures += p.failed() + (p.done() ? 0 : 1);
    return failures;
}

/** Stop every tenant's load and wait for its in-flight I/O. */
bool
drainLoads(sim::Simulator &sim, Slicer &slicer,
           std::vector<VerifiedTenant> &tenants)
{
    int stopping = static_cast<int>(tenants.size());
    for (VerifiedTenant &t : tenants)
        t.load->stop([&stopping] { --stopping; });
    Tick deadline = sim.now() + kHangBound;
    while (stopping > 0 && sim.now() < deadline)
        slicer.run(sim, sim.now() + kSlice);
    return stopping == 0;
}

// ---------------------------------------------------------------------------
// fanout_read: 128 functions, QD2 4 KiB random reads, timing-only data.

class FanoutRead final : public World
{
  public:
    static constexpr int kTenants = 128;

    FanoutRead(const Options &o, Tracer &tracer)
    {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 4;
        cfg.ioQueues = 4;
        // 1 GiB chunks: 128 one-chunk namespaces on four 2 TB SSDs.
        cfg.chunkBytes = sim::gib(1);
        cfg.sqPriorities = {nvme::kQPrioHigh, nvme::kQPrioMedium,
                            nvme::kQPrioMedium, nvme::kQPrioLow};
        cfg.engine.frontArb = nvme::ArbitrationMode::WeightedRoundRobin;
        _bed = std::make_unique<harness::BmStoreTestbed>(cfg);
        sim::Simulator &s = _bed->sim();
        _probe = std::make_unique<Probe>(s, tracer, kTenants);

        workload::FioJobSpec spec;
        spec.pattern = workload::FioPattern::RandRead;
        spec.blockSize = kBlock;
        spec.iodepth = 2;
        spec.numjobs = 1;
        spec.rampTime = 0;
        spec.runTime = kFanoutSimPerWallSecond * static_cast<Tick>(o.seconds);
        spec.caseName = "fanout_read";
        _runTime = spec.runTime;

        std::uint32_t span = tracer.intern("workload.fio");
        sim::Rng rng(o.seed ^ kFanoutSalt);
        for (int i = 0; i < kTenants; ++i) {
            host::NvmeDriver &drv = _bed->attachTenant(
                static_cast<pcie::FunctionId>(i), sim::gib(1));
            _drivers.push_back(&drv);
            // Each tenant submits from one seeded queue, so its CPU core
            // and WRR class (cfg.sqPriorities) are inputs of the seed.
            _devs.push_back(std::make_unique<TimedDevice>(
                *_probe, drv, i, span,
                static_cast<int>(rng.uniformInt(0, cfg.ioQueues - 1))));
            _fio.push_back(s.make<workload::FioRunner>(
                s, "perfbench.fio" + std::to_string(i), *_devs.back(),
                spec));
        }
    }

    sim::Simulator &sim() override { return _bed->sim(); }

    void
    runTimed(Slicer &slicer) override
    {
        sim::Simulator &s = sim();
        Probe &p = *_probe;
        p.timed = p.measuring = true;
        p.windowStart = s.now();
        int finished = 0;
        for (workload::FioRunner *fio : _fio)
            fio->start([&finished] { ++finished; });
        Tick deadline = s.now() + _runTime + kHangBound;
        while (finished < kTenants && s.now() < deadline)
            slicer.run(s, s.now() + kSlice);
        if (finished < kTenants)
            violation("fio runners did not finish");
        p.timed = p.measuring = false;
        for (workload::FioRunner *fio : _fio) {
            if (fio->result().errors != 0)
                violation("fio runner saw failed reads");
        }
    }

  protected:
    std::vector<harness::BmStoreTestbed *> cards() override
    {
        return {_bed.get()};
    }

  private:
    std::unique_ptr<harness::BmStoreTestbed> _bed;
    std::vector<std::unique_ptr<TimedDevice>> _devs;
    std::vector<workload::FioRunner *> _fio;
    Tick _runTime = 0;
};

// ---------------------------------------------------------------------------
// verified_rw: 4 tenants on 2 SSDs, oracle-verified 50/50 r/w, QD8.

class VerifiedRw final : public World
{
  public:
    static constexpr int kTenants = 4;
    static constexpr std::uint64_t kWindow = sim::mib(64);

    VerifiedRw(const Options &o, Tracer &tracer) : _log(256)
    {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 2;
        cfg.ssd.functionalData = true;
        _bed = std::make_unique<harness::BmStoreTestbed>(cfg);
        sim::Simulator &s = _bed->sim();
        _probe = std::make_unique<Probe>(s, tracer, kTenants);
        _span = kVerifiedSimPerWallSecond * static_cast<Tick>(o.seconds);

        fuzz::TenantSpec spec;
        spec.iodepth = 8;
        spec.readRatio = 0.5;
        spec.flushProb = 0.01;
        spec.minIoBlocks = 1;
        spec.maxIoBlocks = 8;
        std::uint32_t span = tracer.intern("fuzz.oracle");
        sim::Rng rng(o.seed ^ kVerifiedSalt);
        for (int i = 0; i < kTenants; ++i) {
            host::NvmeDriver &drv = _bed->attachTenant(
                static_cast<pcie::FunctionId>(i), kWindow);
            _drivers.push_back(&drv);
            _tenants.push_back(makeVerifiedTenant(
                s, *_probe, _bed->host().memory(), _log, drv, i, kWindow,
                spec, rng.fork(), o.seed, span));
        }
        if (passAll(s, _tenants, true, nullptr) != 0)
            violation("prefill failed");
    }

    sim::Simulator &sim() override { return _bed->sim(); }

    void
    runTimed(Slicer &slicer) override
    {
        sim::Simulator &s = sim();
        Probe &p = *_probe;
        p.timed = p.measuring = true;
        p.windowStart = s.now();
        for (VerifiedTenant &t : _tenants)
            t.load->start();
        Tick end = s.now() + _span;
        while (s.now() < end)
            slicer.run(s, std::min(end, s.now() + kSlice));
        if (!drainLoads(s, slicer, _tenants))
            violation("tenant loads did not drain");
        p.measuring = false;
        if (passAll(s, _tenants, false, &slicer) != 0)
            violation("read-back sweep failed");
        p.timed = false;
    }

  protected:
    std::vector<harness::BmStoreTestbed *> cards() override
    {
        return {_bed.get()};
    }

  private:
    fuzz::OpLog _log;
    std::unique_ptr<harness::BmStoreTestbed> _bed;
    Tick _span = 0;
};

// ---------------------------------------------------------------------------
// fleet_replace: 2 cards x 2 SSDs, df placement, a lossless-replace
// wave under verified load and an out-of-band ioStats monitor.

class FleetReplace final : public World
{
  public:
    /** The wave over these cards' slots sets the timed phase's length. */
    static constexpr int kCards = 2;
    static constexpr int kAdmissionsPerCard = 3;
    static constexpr int kActive = 4;
    static constexpr std::uint64_t kTenantBytes = sim::mib(8);
    static constexpr Tick kPollPeriod = sim::milliseconds(5);

    FleetReplace(const Options &o, Tracer &tracer)
        : _tracer(tracer), _log(256),
          _callSpan(tracer.intern("mgmt.call")),
          _replySpan(tracer.intern("mgmt.reply"))
    {
        fleet::FleetConfig fc;
        fc.cards = kCards;
        fc.ssdsPerCard = 2;
        _fm = std::make_unique<fleet::FleetManager>(fc);
        sim::Simulator &s = _fm->sim();
        _probe = std::make_unique<Probe>(s, tracer, kActive);
        sim::Rng rng(o.seed ^ kFleetSalt);
        _pollPhase = rng.uniformInt(0, kPollPeriod - 1);

        std::uint32_t admit_span = tracer.intern("fleet.admit");
        std::vector<fleet::Placement> placed;
        for (int i = 0; i < kAdmissionsPerCard * fc.cards; ++i) {
            fleet::TenantRequest req;
            req.bytes = kTenantBytes;
            req.qos = fleet::QosClass::Silver;
            std::uint64_t verbs0 = verbsSent();
            Tick model0 = s.now();
            std::int64_t wall0 = wallNs();
            fleet::Placement pl;
            {
                Span span(tracer, admit_span, static_cast<std::uint64_t>(i));
                pl = _fm->admit(req);
            }
            _out.admitWallMs.push_back(
                static_cast<double>(wallNs() - wall0) / 1e6);
            _out.admitModelMs.push_back(sim::toMs(s.now() - model0));
            _out.admitVerbs += verbsSent() - verbs0;
            if (!pl.ok)
                violation("admission refused: " + pl.reason);
            else
                placed.push_back(pl);
        }

        fuzz::TenantSpec spec;
        spec.iodepth = 3;
        spec.readRatio = 0.5;
        spec.flushProb = 0.01;
        spec.minIoBlocks = 1;
        spec.maxIoBlocks = 8;
        std::uint32_t span = tracer.intern("fuzz.oracle");
        for (int i = 0; i < kActive && i < static_cast<int>(placed.size());
             ++i) {
            const fleet::Placement &pl = placed[static_cast<std::size_t>(i)];
            host::NvmeDriver &drv = _fm->tenantDriver(pl.card, pl.fn);
            _drivers.push_back(&drv);
            VerifiedTenant t = makeVerifiedTenant(
                s, *_probe, _fm->card(pl.card).host().memory(), _log, drv, i,
                kTenantBytes, spec, rng.fork(), o.seed, span);
            t.card = pl.card;
            t.fn = pl.fn;
            _tenants.push_back(std::move(t));
        }
        if (passAll(s, _tenants, true, nullptr) != 0)
            violation("prefill failed");
        _fm->setAvailabilityProbe([this] {
            Tick worst = 0;
            for (const TenantTally &t : _probe->tenants)
                worst = std::max(worst, t.maxLatency);
            return worst;
        });
    }

    sim::Simulator &sim() override { return _fm->sim(); }

    void
    runTimed(Slicer &slicer) override
    {
        sim::Simulator &s = sim();
        Probe &p = *_probe;
        p.timed = p.measuring = true;
        p.windowStart = s.now();
        for (VerifiedTenant &t : _tenants)
            t.load->start();
        _monitorOn = true;
        s.scheduleAt(s.now() + _pollPhase, [this] { poll(); });

        fleet::WaveConfig wc;
        wc.op = fleet::WaveOp::LosslessReplace;
        wc.failureBudget = 0;
        wc.availabilityBound = sim::seconds(1);
        _fm->startWave(wc);

        std::deque<Pass> reverify;
        std::uint32_t ops_seen = 0;
        Tick deadline = s.now() + sim::seconds(60);
        double migrations_done = migrationsFinished();
        while (_fm->waveState() == fleet::WaveState::Running &&
               s.now() < deadline) {
            Tick t0 = s.now();
            slicer.run(s, t0 + kSlice);
            double done_now = migrationsFinished();
            if (migrationsInFlight() > 0 || done_now > migrations_done)
                _out.copyTicks += s.now() - t0;
            migrations_done = done_now;
            // Re-verify the tenants of a card once each of its slots has
            // been swapped under them.
            const fleet::WaveReport &w = _fm->waveReport();
            for (; ops_seen < w.opsOk + w.opsFailed; ++ops_seen) {
                int card = static_cast<int>(ops_seen) / _fm->config().ssdsPerCard;
                for (VerifiedTenant &t : _tenants) {
                    if (t.card == card)
                        reverify.emplace_back(*t.oracle, *t.dev, false)
                            .start();
                }
            }
        }
        _out.wave = _fm->waveReport();
        if (_out.wave.state != fleet::WaveState::Done)
            violation("rolling wave did not reach Done");
        if (_out.wave.opsFailed != 0 || _out.wave.gateTrips != 0)
            violation("rolling wave had failed ops or gate trips");

        _monitorOn = false;
        if (!drainLoads(s, slicer, _tenants))
            violation("tenant loads did not drain");
        Tick drain_deadline = s.now() + kHangBound;
        auto settled = [this, &reverify] {
            return _verbsDone == _out.verbsSent &&
                   std::all_of(reverify.begin(), reverify.end(),
                               [](const Pass &r) { return r.done(); });
        };
        while (!settled() && s.now() < drain_deadline)
            slicer.run(s, s.now() + kSlice);
        std::uint64_t failures = 0;
        for (const Pass &r : reverify)
            failures += r.failed() + (r.done() ? 0 : 1);
        if (_verbsDone != _out.verbsSent)
            violation("monitor verbs did not all complete");
        p.measuring = false;
        failures += passAll(s, _tenants, false, &slicer);
        if (failures != 0)
            violation("read-back sweep failed");
        p.timed = false;
        _out.traceHash = _fm->traceHash();
    }

    const FleetOutputs *fleet() const override { return &_out; }

  protected:
    std::vector<harness::BmStoreTestbed *> cards() override
    {
        std::vector<harness::BmStoreTestbed *> out;
        for (int c = 0; c < _fm->cards(); ++c)
            out.push_back(&_fm->card(c));
        return out;
    }

  private:
    std::uint64_t
    verbsSent()
    {
        std::uint64_t n = 0;
        for (int c = 0; c < _fm->cards(); ++c)
            n += _fm->card(c).console().requestsSent();
        return n;
    }

    double
    migrationStat(const char *leaf)
    {
        double v = 0.0;
        for (int c = 0; c < _fm->cards(); ++c)
            v += sim().stats().value("card" + std::to_string(c) +
                                     ".bmsc.migration." + leaf);
        return v;
    }

    double migrationsFinished()
    {
        return migrationStat("completed") + migrationStat("aborted");
    }

    double migrationsInFlight()
    {
        return migrationStat("started") - migrationsFinished();
    }

    /** One monitor round: ioStats of every verified tenant's function. */
    void
    poll()
    {
        if (!_monitorOn)
            return;
        sim::Simulator &s = sim();
        for (VerifiedTenant &t : _tenants) {
            Span span(_tracer, _callSpan);
            ++_out.verbsSent;
            Tick sent = s.now();
            core::MgmtConsole &console = _fm->card(t.card).console();
            console.ioStats(
                _fm->card(t.card).controller().endpoint().eid(), t.fn,
                [this, sent](std::optional<core::MiIoStats> st) {
                    Span reply(_tracer, _replySpan);
                    ++_verbsDone;
                    if (!st)
                        ++_out.verbsFailed;
                    _out.verbRtt.add(sim().now() - sent);
                });
        }
        s.scheduleAfter(kPollPeriod, [this] { poll(); });
    }

    Tracer &_tracer;
    fuzz::OpLog _log;
    std::uint32_t _callSpan;
    std::uint32_t _replySpan;
    std::unique_ptr<fleet::FleetManager> _fm;
    Tick _pollPhase = 0;
    bool _monitorOn = false;
    std::uint64_t _verbsDone = 0;
    FleetOutputs _out;
};

} // namespace

void
World::snapshot(Snapshot &out)
{
    for (host::NvmeDriver *d : _drivers)
        out.interrupts += d->interruptCount();
    for (harness::BmStoreTestbed *bed : cards()) {
        host::CpuSet &cpus = bed->host().cpus();
        for (int i = 0; i < cpus.size(); ++i)
            out.cpuBusy += cpus.core(i).busyTotal();
        out.hostPages += bed->host().memory().raw().allocatedPages();
        // The SSDs serving the slots now (spares after a hot-plug swap).
        core::BmsEngine &engine = bed->engine();
        for (int s = 0; s < engine.ssdSlots(); ++s) {
            auto *dev = dynamic_cast<ssd::SsdDevice *>(engine.adaptor(s).ssd());
            if (dev != nullptr)
                out.flashPages += dev->flash().allocatedPages();
        }
    }
}

std::uint64_t
World::verifiedBlocks() const
{
    std::uint64_t n = 0;
    for (const VerifiedTenant &t : _tenants)
        n += t.oracle->verifiedBlocks();
    return n;
}

std::uint64_t
World::verifiedWindowBytes() const
{
    std::uint64_t n = 0;
    for (const VerifiedTenant &t : _tenants)
        n += t.oracle->blocks() * kBlock;
    return n;
}

void
Slicer::run(sim::Simulator &sim, Tick until)
{
    std::int64_t t0 = wallNs();
    {
        Span span(_tracer, _span);
        sim.runUntil(until);
    }
    _sliceNs.push_back(wallNs() - t0);
    _pendingMax = std::max(_pendingMax, sim.queue().size());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fanout_read", "verified_rw", "fleet_replace"};
    return names;
}

std::unique_ptr<World>
makeWorld(const Options &opts, Tracer &tracer)
{
    if (opts.workload == "fanout_read")
        return std::make_unique<FanoutRead>(opts, tracer);
    if (opts.workload == "verified_rw")
        return std::make_unique<VerifiedRw>(opts, tracer);
    if (opts.workload == "fleet_replace")
        return std::make_unique<FleetReplace>(opts, tracer);
    return nullptr;
}

} // namespace perfbench
