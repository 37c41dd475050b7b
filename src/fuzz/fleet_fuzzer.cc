#include "fuzz/fleet_fuzzer.hh"

#include <algorithm>
#include <iostream>
#include <string>

#include "sim/check.hh"
#include "sim/random.hh"

namespace bms::fuzz {

FleetFuzzer::FleetFuzzer(FleetFuzzConfig cfg)
    : _cfg(cfg), _log(cfg.opLogCapacity)
{
    BMS_ASSERT(_cfg.cards >= 2 && _cfg.cards <= 64,
               "fleet fuzz wants 2..64 cards: ", _cfg.cards);
    BMS_ASSERT(_cfg.maxTenants >= 1, "need at least one admission");
    BMS_ASSERT(_cfg.maxActiveTenants >= 1,
               "need at least one verified tenant");
    BMS_ASSERT(_cfg.horizon >= sim::milliseconds(10),
               "horizon too short for a wave plus a drill");
}

FleetFuzzer::~FleetFuzzer() = default;

void
FleetFuzzer::fail(const std::string &what)
{
    _log.dump(std::cerr);
    BMS_PANIC("fleet-fuzzer: ", what, " [seed=", _cfg.seed, "]");
}

void
FleetFuzzer::admitTenants(sim::Rng &rng, FleetFuzzReport &report)
{
    // At least one admission attempt per card, up to the tenant cap;
    // refusals are legal outcomes the report keeps visible.
    int floor_n = std::min(_cfg.maxTenants, _fleet->cards());
    int want = floor_n;
    if (_cfg.maxTenants > floor_n)
        want += static_cast<int>(
            rng.uniformInt(0, _cfg.maxTenants - floor_n));
    for (int t = 0; t < want; ++t) {
        fleet::TenantRequest req;
        req.bytes = sim::mib(4ull << rng.uniformInt(0, 2)); // 4..16 MiB
        req.qos = static_cast<fleet::QosClass>(rng.uniformInt(0, 2));
        req.thin = rng.chance(0.4);
        req.antiAffinityGroup =
            rng.chance(0.25) ? static_cast<int>(rng.uniformInt(0, 1))
                             : -1;
        fleet::Placement p = _fleet->admit(req);
        if (!p.ok) {
            ++report.refused;
            _log.record(_fleet->sim().now(),
                        "admit refused: " + p.reason);
            continue;
        }
        ++report.placed;
        _placed.push_back(Placed{p.card, p.fn, req.thin, req.bytes});
    }
    if (_placed.empty())
        fail("no admission succeeded on an empty fleet");
}

void
FleetFuzzer::activateTenants(sim::Rng &rng)
{
    sim::Simulator &sim = _fleet->sim();
    int n = std::min(static_cast<int>(_placed.size()),
                     _cfg.maxActiveTenants);
    for (int i = 0; i < n; ++i) {
        const Placed &p = _placed[static_cast<std::size_t>(i)];
        host::NvmeDriver &drv = _fleet->tenantDriver(p.card, p.fn);

        OracleDevice::Config ocfg;
        ocfg.uid = static_cast<std::uint32_t>(i + 1);
        ocfg.seed = _cfg.seed;
        ocfg.regionBytes = sim::mib(1 + rng.uniformInt(0, 1));
        ocfg.baseOffset = 0;
        auto *oracle = sim.make<OracleDevice>(
            sim, "fleet.oracle" + std::to_string(i), drv,
            _fleet->card(p.card).host().memory(), _log, ocfg);

        TenantSpec spec;
        spec.iodepth = 1 + static_cast<int>(rng.uniformInt(0, 7));
        spec.readRatio = rng.uniformDouble(0.2, 0.8);
        spec.flushProb = 0.005;
        spec.minIoBlocks = 1;
        spec.maxIoBlocks = 1u << rng.uniformInt(0, 4); // 4..64 KiB
        spec.sequential = rng.chance(0.3);
        if (p.thin)
            spec.trimProb = rng.uniformDouble(0.02, 0.08);
        auto *wl = sim.make<TenantWorkload>(
            sim, "fleet.tenant" + std::to_string(i), *oracle, rng.fork(),
            spec);
        _active.push_back(Active{p.card, p.fn, oracle, wl});
        wl->start();
    }
}

void
FleetFuzzer::drain(const char *stage, const std::function<bool()> &done,
                   sim::Tick timeout)
{
    sim::Simulator &sim = _fleet->sim();
    sim::Tick deadline = sim.now() + timeout;
    while (!done()) {
        if (sim.now() >= deadline)
            fail(std::string("drain timed out at stage '") + stage +
                 "'");
        sim.runUntil(sim.now() + sim::milliseconds(1));
    }
}

void
FleetFuzzer::finalSweep()
{
    // Read back every verified block of every active tenant once —
    // after a wave plus a drill, whatever is on media fleet-wide must
    // still decode to an acceptable stamp.
    OracleDevice::SweepTally tally;
    for (Active &a : _active)
        a.oracle->sweep(tally);
    drain("final sweep", [&tally] { return tally.pending == 0; },
          sim::seconds(30));
    BMS_ASSERT_EQ(tally.failed, 0u,
                  "fleet final sweep reads failed with fault rates at "
                  "zero");
}

FleetFuzzReport
FleetFuzzer::run()
{
    FleetFuzzReport report;
    report.seed = _cfg.seed;

    // The fleet stream is forked off its own constant; the legacy
    // single-card families never see these draws (and --fleet never
    // constructs the legacy Fuzzer), so pinned seeds 1-8, 201-204,
    // 301-304, 401-404 and 501-504 replay byte-identically.
    sim::Rng rng(_cfg.seed ^ 0xf1ee'75ca'1e01ULL);

    fleet::FleetConfig fc;
    fc.seed = _cfg.seed;
    fc.cards = 2 + static_cast<int>(rng.uniformInt(0, _cfg.cards - 2));
    fc.ssdsPerCard = 2;
    // One storage node behind every card so the drill can lose (and
    // recover) one per hit card.
    fc.remoteNodesPerCard = _cfg.enableDrill ? 1 : 0;
    _fleet = std::make_unique<fleet::FleetManager>(fc);
    report.cards = _fleet->cards();
    sim::Simulator &sim = _fleet->sim();

    admitTenants(rng, report);
    activateTenants(rng);
    report.active = static_cast<int>(_active.size());
    _start = sim.now();

    // Fault windows excuse tenant errors on the hit cards; once a
    // window opened the oracle stays lenient (commands submitted near
    // the closing edge may fail late), exactly like the single-card
    // fuzzer.
    _fleet->setFaultWindowHook([this](int card, bool open) {
        if (!open)
            return;
        for (Active &a : _active) {
            if (a.card == card)
                a.oracle->setFaultsActive(true);
        }
    });
    // The wave's availability gate reads the worst tenant
    // submit→complete gap fleet-wide.
    _fleet->setAvailabilityProbe([this] {
        sim::Tick worst = 0;
        for (Active &a : _active)
            worst = std::max(worst, a.workload->maxCompletionGap());
        return worst;
    });

    if (_cfg.enableWave) {
        fleet::WaveConfig wc;
        wc.op = rng.chance(0.5) ? fleet::WaveOp::FirmwareUpgrade
                                : fleet::WaveOp::LosslessReplace;
        wc.failureBudget = 1 + static_cast<int>(rng.uniformInt(0, 2));
        wc.availabilityBound = sim::seconds(5);
        sim::Tick at = _start + _cfg.horizon / 5;
        sim.scheduleAt(at, [this, wc] {
            _log.record(_fleet->sim().now(), "wave start");
            _fleet->startWave(wc);
        });
    }

    if (_cfg.enableDrill) {
        fleet::FaultDrill drill;
        drill.firstCard = static_cast<int>(rng.uniformInt(0, 1));
        drill.cardStride = 2;
        drill.at = _start + _cfg.horizon / 2;
        drill.duration =
            sim::milliseconds(10 + rng.uniformInt(0, 20));
        drill.readErrorRate = rng.uniformDouble(0.05, 0.3);
        drill.writeErrorRate = rng.uniformDouble(0.05, 0.3);
        drill.latencySpikeRate = rng.uniformDouble(0.0, 0.2);
        drill.loseNode = true;
        drill.upgradeStorm = rng.chance(0.7);
        _fleet->scheduleDrill(drill);
    }

    sim.runUntil(_start + _cfg.horizon);

    // Drain: tenants first (their I/O no longer moves the gates),
    // then the drill's outstanding verbs, then the wave — resuming a
    // budget-paused wave with fresh budget until it completes, as the
    // operator runbook prescribes.
    int stopping = static_cast<int>(_active.size());
    for (Active &a : _active)
        a.workload->stop([&stopping] { --stopping; });
    drain("tenant drain", [&stopping] { return stopping == 0; },
          sim::seconds(30));
    drain("drill drain", [this] { return _fleet->drillIdle(); },
          sim::seconds(30));
    if (_cfg.enableWave) {
        int resumes = 0;
        while (true) {
            drain("wave",
                  [this] {
                      return _fleet->waveState() !=
                             fleet::WaveState::Running;
                  },
                  sim::seconds(120));
            if (_fleet->waveState() == fleet::WaveState::Paused) {
                // Every resume consumes at least one more op, so this
                // terminates; the bound is just a tripwire.
                if (++resumes > 4 * _fleet->cards())
                    fail("wave paused more often than it has ops");
                _fleet->resumeWave(2);
                continue;
            }
            break;
        }
        if (_fleet->waveState() != fleet::WaveState::Done)
            fail("wave did not complete");
        const fleet::WaveReport &w = _fleet->waveReport();
        std::uint32_t slots = static_cast<std::uint32_t>(
            _fleet->cards() * _fleet->config().ssdsPerCard);
        if (w.opsOk + w.opsFailed != slots)
            fail("wave op count does not cover the fleet");
    }

    finalSweep();

    for (Active &a : _active) {
        report.totalOps += a.workload->ops();
        report.totalErrors += a.workload->errors();
        report.verifiedBlocks += a.oracle->verifiedBlocks();
        report.maxCompletionGap = std::max(
            report.maxCompletionGap, a.workload->maxCompletionGap());
    }
    if (report.totalErrors > 0 && _fleet->faultWindowsOpened() == 0)
        fail("tenant I/O failed without a fault window to excuse it");
    if (report.maxCompletionGap > sim::seconds(10))
        fail("a tenant I/O stalled past the 10 s availability bound");
    if (report.verifiedBlocks == 0)
        fail("nothing was verified");

    const fleet::WaveReport &w = _fleet->waveReport();
    report.waveOpsOk = w.opsOk;
    report.waveOpsFailed = w.opsFailed;
    report.wavePauses = w.pauses;
    report.waveGateTrips = w.gateTrips;
    report.waveEvacuatedChunks = w.evacuatedChunks;
    report.waveMakespan = w.makespan;
    report.faultWindows = _fleet->faultWindowsOpened();
    report.nodeLosses = _fleet->nodeLossesRecovered();
    report.stormRejections = _fleet->stormRejections();
    report.traceHash = _fleet->traceHash();
    report.finishedAt = sim.now();
    return report;
}

} // namespace bms::fuzz
