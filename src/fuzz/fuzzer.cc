#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "nvme/defs.hh"
#include "sim/check.hh"

namespace bms::fuzz {

Fuzzer::Fuzzer(FuzzConfig cfg) : _cfg(cfg), _log(cfg.opLogCapacity)
{
    BMS_ASSERT(_cfg.maxTenants >= 1 && _cfg.maxTenants <= 16,
               "tenants ride on front-end functions (4 PFs + VFs; the "
               "fuzzer caps multi-VF runs at 16): ",
               _cfg.maxTenants);
    BMS_ASSERT(_cfg.maxSsds >= 1 && _cfg.maxSsds <= 4,
               "back end has 4 SSD slots: ", _cfg.maxSsds);
    BMS_ASSERT(_cfg.minSsds >= 1 && _cfg.minSsds <= _cfg.maxSsds,
               "minSsds must be in [1, maxSsds]: ", _cfg.minSsds);
    BMS_ASSERT(_cfg.horizon >= sim::milliseconds(10),
               "horizon too short to schedule control ops");
    BMS_ASSERT(_cfg.maxRemoteNodes >= 0 && _cfg.maxRemoteNodes <= 4,
               "remote nodes must be in [0, 4]: ", _cfg.maxRemoteNodes);
    BMS_ASSERT(!_cfg.forceTiering || _cfg.maxRemoteNodes >= 1,
               "forceTiering needs maxRemoteNodes >= 1");
    if (_cfg.forceThin)
        _cfg.enableThin = true;
    BMS_ASSERT(!_cfg.enableThin || _cfg.maxRemoteNodes == 0,
               "thin/snapshot runs are local-only (snapshot refuses "
               "tier-spilled chunks; keep the streams separate)");
}

Fuzzer::~Fuzzer() = default;

void
Fuzzer::fail(const std::string &what)
{
    _log.dump(std::cerr);
    BMS_PANIC("fuzzer: ", what, " [seed=", _cfg.seed, "]");
}

void
Fuzzer::buildTenants(sim::Rng &rng, sim::Rng &thin_rng)
{
    sim::Simulator &sim = _bed->sim();
    std::uint64_t chunk_bytes =
        _bed->controller().namespaces().chunkBlocks() * nvme::kBlockSize;
    int tenants = 1 + static_cast<int>(
                          rng.uniformInt(0, _cfg.maxTenants - 1));
    for (int t = 0; t < tenants; ++t) {
        auto fn = static_cast<pcie::FunctionId>(t);
        // One or two 64 GiB chunks; two-chunk namespaces host their
        // verified window across the chunk boundary so every run with
        // them exercises the engine's extent-splitting path.
        int ns_chunks = rng.chance(0.5) ? 2 : 1;
        std::uint64_t ns_bytes = ns_chunks * chunk_bytes;
        // Thin tenants allocate chunks on first write; their draws
        // come only from the forked thin stream.
        bool thin = _cfg.enableThin &&
                    (_cfg.forceThin || thin_rng.chance(0.7));
        host::NvmeDriver &drv = _bed->attachTenant(
            fn, ns_bytes, core::NamespaceManager::Policy::RoundRobin,
            core::QosLimits(), nullptr, -1, thin);

        OracleDevice::Config ocfg;
        ocfg.uid = static_cast<std::uint32_t>(t + 1);
        ocfg.seed = _cfg.seed;
        ocfg.regionBytes = sim::mib(2 + rng.uniformInt(0, 6));
        if (ns_chunks >= 2) {
            ocfg.baseOffset = chunk_bytes - ocfg.regionBytes / 2;
        } else {
            std::uint64_t span_blocks =
                (ns_bytes - ocfg.regionBytes) / nvme::kBlockSize;
            ocfg.baseOffset =
                rng.uniformInt(0, span_blocks) * nvme::kBlockSize;
        }
        auto *oracle = sim.make<OracleDevice>(
            sim, "oracle" + std::to_string(t), drv,
            _bed->host().memory(), _log, ocfg);

        TenantSpec spec;
        spec.iodepth = 1 + static_cast<int>(rng.uniformInt(0, 15));
        spec.readRatio = rng.uniformDouble(0.2, 0.8);
        spec.flushProb = 0.005;
        spec.minIoBlocks = 1;
        spec.maxIoBlocks = 1u << rng.uniformInt(0, 5); // 4 KiB..128 KiB
        spec.sequential = rng.chance(0.3);
        if (thin)
            spec.trimProb = thin_rng.uniformDouble(0.02, 0.10);
        if (t == 0)
            _t0cfg = ocfg;
        auto *wl = sim.make<TenantWorkload>(
            sim, "tenant" + std::to_string(t), *oracle, rng.fork(), spec);
        _tenants.push_back(Tenant{fn, oracle, wl});
        wl->start();
    }
}

void
Fuzzer::scheduleControlOps(sim::Rng &rng)
{
    if (!_cfg.enableControlOps)
        return;
    sim::Simulator &sim = _bed->sim();
    core::MgmtConsole &console = _bed->console();
    core::Eid eid = _bed->controller().endpoint().eid();
    int pf_count = _bed->engine().config().pfCount;
    int n = 4 + static_cast<int>(rng.uniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
        sim::Tick at =
            _start + static_cast<sim::Tick>(
                         rng.uniformDouble(0.05, 0.95) *
                         static_cast<double>(_cfg.horizon));
        int kind = static_cast<int>(rng.uniformInt(0, 4));
        auto tenant_ix = rng.uniformInt(0, _tenants.size() - 1);
        auto fn = _tenants[tenant_ix].fn;
        switch (kind) {
          case 0:
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid] {
                _log.record(_bed->sim().now(), "ctrl healthPoll");
                console.healthPoll(eid, [this](std::vector<core::SlotHealth>
                                                   health) {
                    BMS_ASSERT(!health.empty(), "health poll empty");
                    ++_controlOps;
                    --_pendingControl;
                });
            });
            break;
          case 1:
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid, fn] {
                _log.record(_bed->sim().now(),
                            "ctrl ioStats fn=" + std::to_string(fn));
                console.ioStats(
                    eid, static_cast<std::uint8_t>(fn),
                    [this](std::optional<core::MiIoStats> stats) {
                        BMS_ASSERT(stats.has_value(),
                                   "ioStats on live tenant failed");
                        ++_controlOps;
                        --_pendingControl;
                    });
            });
            break;
          case 2: {
            // Generous limits: exercises the QoS reprogramming path
            // mid-I/O without throttling tenants into the drain phase.
            core::QosLimits qos;
            qos.iopsLimit = 200'000.0 + 100'000.0 * rng.uniform01();
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid, fn, qos] {
                _log.record(_bed->sim().now(),
                            "ctrl setQos fn=" + std::to_string(fn));
                console.setQos(eid, static_cast<std::uint8_t>(fn), 1, qos,
                               [this](bool ok) {
                                   BMS_ASSERT(ok, "setQos failed");
                                   ++_controlOps;
                                   --_pendingControl;
                               });
            });
            break;
          }
          case 3: {
            // Scratch namespace life cycle on an idle VF: allocate a
            // chunk mid-I/O, destroy it a little later.
            auto vf = static_cast<std::uint8_t>(
                pf_count + rng.uniformInt(0, 3));
            std::uint64_t bytes =
                _bed->controller().namespaces().chunkBlocks() *
                nvme::kBlockSize;
            sim::Tick destroy_after =
                sim::milliseconds(1 + rng.uniformInt(0, 20));
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid, vf, bytes,
                                destroy_after] {
                _log.record(_bed->sim().now(),
                            "ctrl createNs vf=" + std::to_string(vf));
                console.createNamespace(
                    eid, vf, bytes, 0, core::QosLimits(),
                    [this, &console, eid, vf,
                     destroy_after](std::optional<std::uint32_t> nsid) {
                        ++_controlOps;
                        if (!nsid) {
                            // Legal under chunk exhaustion.
                            --_pendingControl;
                            return;
                        }
                        _bed->sim().scheduleAfter(
                            destroy_after,
                            [this, eid, vf, nsid = *nsid] {
                                _log.record(_bed->sim().now(),
                                            "ctrl destroyNs vf=" +
                                                std::to_string(vf));
                                destroyScratch(eid, vf, nsid, 0);
                            });
                    });
            });
            break;
          }
          default: {
            // Live resize: grow a tenant namespace by one chunk while
            // its I/O is in flight (local control-plane op).
            std::uint64_t extra =
                _bed->controller().namespaces().chunkBlocks() *
                nvme::kBlockSize;
            sim.scheduleAt(at, [this, fn, extra] {
                auto grown = _bed->controller().namespaces().grow(
                    fn, 1, extra);
                _log.record(_bed->sim().now(),
                            "ctrl grow fn=" + std::to_string(fn) +
                                (grown ? " ok" : " exhausted"));
                ++_controlOps;
            });
            break;
          }
        }
    }
}

void
Fuzzer::destroyScratch(core::Eid eid, std::uint8_t vf,
                       std::uint32_t nsid, int attempt)
{
    _bed->console().destroyNamespace(
        eid, vf, nsid, [this, eid, vf, nsid, attempt](bool ok) {
            if (ok) {
                ++_controlOps;
                --_pendingControl;
                return;
            }
            // A migration (usually an evacuation sweeping the scratch
            // chunk along) holds the namespace locked; destroy is
            // refused until the copy settles, so retry.
            if (attempt >= 200)
                fail("scratch namespace destroy kept failing");
            _bed->sim().scheduleAfter(
                sim::milliseconds(5), [this, eid, vf, nsid, attempt] {
                    destroyScratch(eid, vf, nsid, attempt + 1);
                });
        });
}

void
Fuzzer::scheduleMigrations(sim::Rng &rng)
{
    if (!_cfg.enableMigration || _bed->ssdCount() < 2)
        return;
    sim::Simulator &sim = _bed->sim();
    core::MgmtConsole &console = _bed->console();
    core::Eid eid = _bed->controller().endpoint().eid();
    int n = _cfg.forceMigration
                ? 3
                : static_cast<int>(rng.uniformInt(0, 3));
    sim::Tick first_at = 0;
    for (int i = 0; i < n; ++i) {
        sim::Tick at =
            _start + static_cast<sim::Tick>(
                         rng.uniformDouble(0.05, 0.6) *
                         static_cast<double>(_cfg.horizon));
        if (first_at == 0 || at < first_at)
            first_at = at;
        // Pinned seeds always get one migrate and one evacuate.
        int kind = _cfg.forceMigration && i < 2
                       ? i
                       : static_cast<int>(rng.uniformInt(0, 3));
        switch (kind) {
          case 0: {
            auto tenant_ix = rng.uniformInt(0, _tenants.size() - 1);
            auto fn = _tenants[tenant_ix].fn;
            auto chunk_ix =
                static_cast<std::uint32_t>(rng.uniformInt(0, 1));
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid, fn, chunk_ix] {
                _log.record(_bed->sim().now(),
                            "ctrl migrate fn=" + std::to_string(fn) +
                                " chunk=" + std::to_string(chunk_ix));
                // May fail legally: chunk index past the namespace
                // end, destination full, or copy faulted out.
                console.migrateChunk(
                    eid, static_cast<std::uint8_t>(fn), 1, chunk_ix,
                    0xFF, [this](core::MiMigrateResult) {
                        ++_controlOps;
                        --_pendingControl;
                    });
            });
            break;
          }
          case 1: {
            int slot = static_cast<int>(
                rng.uniformInt(0, _bed->ssdCount() - 1));
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid, slot] {
                _log.record(_bed->sim().now(),
                            "ctrl evacuate slot=" + std::to_string(slot));
                console.evacuate(
                    eid, static_cast<std::uint8_t>(slot),
                    [this](core::MiEvacuateResult) {
                        ++_controlOps;
                        --_pendingControl;
                    });
            });
            break;
          }
          case 2:
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid] {
                _log.record(_bed->sim().now(), "ctrl migrations");
                console.migrations(
                    eid, [this](std::vector<core::MiMigrationInfo>) {
                        ++_controlOps;
                        --_pendingControl;
                    });
            });
            break;
          default:
            ++_pendingControl;
            sim.scheduleAt(at, [this, &console, eid] {
                _log.record(_bed->sim().now(), "ctrl df");
                console.df(eid, [this](std::vector<core::MiDfEntry> df) {
                    int slots =
                        _bed->ssdCount() +
                        _bed->remoteNodes() * _bed->config().volumesPerNode;
                    BMS_ASSERT_EQ(df.size(),
                                  static_cast<std::size_t>(slots),
                                  "df must report every slot");
                    ++_controlOps;
                    --_pendingControl;
                });
            });
            break;
        }
    }
    // Pin a fault window over the first migration op, with error and
    // latency rates on EVERY slot so both the copy's source and its
    // destination legs see faults mid-flight.
    if (_cfg.enableFaults && n > 0) {
        sim::Tick t1 =
            first_at + static_cast<sim::Tick>(
                           rng.uniformDouble(0.1, 0.3) *
                           static_cast<double>(_cfg.horizon));
        std::vector<ssd::FaultConfig> rates(_bed->ssdCount());
        for (auto &r : rates) {
            r.readErrorRate = rng.uniformDouble(0.002, 0.03);
            r.writeErrorRate = rng.uniformDouble(0.002, 0.03);
            r.latencySpikeRate = rng.uniformDouble(0.005, 0.03);
        }
        sim.scheduleAt(first_at, [this, rates] {
            _log.record(_bed->sim().now(),
                        "fault window OPEN (migration)");
            ++_faultWindows;
            _faultsEverActive = true;
            for (int s = 0; s < _bed->ssdCount(); ++s)
                _bed->ssd(s).faults() = rates[static_cast<std::size_t>(s)];
            for (Tenant &t : _tenants)
                t.oracle->setFaultsActive(true);
        });
        sim.scheduleAt(t1, [this] {
            _log.record(_bed->sim().now(),
                        "fault window CLOSE (migration)");
            for (int s = 0; s < _bed->ssdCount(); ++s)
                _bed->ssd(s).faults() = ssd::FaultConfig{};
        });
    }
}

void
Fuzzer::scheduleUpgrades(sim::Rng &rng)
{
    if (!_cfg.enableHotUpgrade)
        return;
    if (!_cfg.forceUpgrade && !rng.chance(0.6))
        return;
    sim::Simulator &sim = _bed->sim();
    core::Eid eid = _bed->controller().endpoint().eid();
    int slot = _cfg.forceUpgrade
                   ? 0
                   : static_cast<int>(
                         rng.uniformInt(0, _bed->ssdCount() - 1));
    sim::Tick at =
        _cfg.forceUpgrade
            ? _start + _cfg.horizon / 4
            : _start + static_cast<sim::Tick>(
                           rng.uniformDouble(0.1, 0.5) *
                           static_cast<double>(_cfg.horizon));
    ++_pendingControl;
    sim.scheduleAt(at, [this, eid, slot] {
        _log.record(_bed->sim().now(),
                    "ctrl hotUpgrade slot=" + std::to_string(slot));
        _bed->console().firmwareUpgrade(
            eid, static_cast<std::uint8_t>(slot), 1u << 20,
            [this](core::MiUpgradeResult r) {
                if (!r.ok)
                    fail("hot upgrade reported failure");
                ++_upgrades;
                --_pendingControl;
            });
    });
    if (_cfg.forceUpgrade || rng.chance(0.5)) {
        // Concurrent-upgrade probe: a second request for the same slot
        // while the first is mid-flight must be rejected cleanly, not
        // interleave two context store/reload sequences.
        ++_pendingControl;
        sim.scheduleAt(at + sim::milliseconds(20), [this, slot] {
            _log.record(_bed->sim().now(),
                        "ctrl hotUpgrade(probe) slot=" +
                            std::to_string(slot));
            _bed->controller().hotUpgrade().upgrade(
                slot, 4096,
                [this](core::HotUpgradeManager::Report r) {
                    if (r.ok)
                        ++_upgrades; // first finished unusually fast
                    --_pendingControl;
                });
        });
    }
}

void
Fuzzer::scheduleFaultWindows(sim::Rng &rng)
{
    if (!_cfg.enableFaults)
        return;
    sim::Simulator &sim = _bed->sim();
    int windows = static_cast<int>(rng.uniformInt(0, 2));
    for (int w = 0; w < windows; ++w) {
        sim::Tick t0 =
            _start + static_cast<sim::Tick>(
                         rng.uniformDouble(0.05, 0.7) *
                         static_cast<double>(_cfg.horizon));
        sim::Tick t1 = t0 + static_cast<sim::Tick>(
                                rng.uniformDouble(0.05, 0.25) *
                                static_cast<double>(_cfg.horizon));
        std::vector<ssd::FaultConfig> rates(_bed->ssdCount());
        for (auto &r : rates) {
            if (!rng.chance(0.7))
                continue;
            r.readErrorRate = rng.uniformDouble(0.002, 0.05);
            r.writeErrorRate = rng.uniformDouble(0.002, 0.05);
            r.latencySpikeRate = rng.uniformDouble(0.005, 0.05);
        }
        sim.scheduleAt(t0, [this, rates] {
            _log.record(_bed->sim().now(), "fault window OPEN");
            ++_faultWindows;
            _faultsEverActive = true;
            for (int s = 0; s < _bed->ssdCount(); ++s)
                _bed->ssd(s).faults() = rates[static_cast<std::size_t>(s)];
            // The oracle stays lenient about *failed* I/Os for the
            // rest of the run: commands submitted around the window
            // edges (or latched across a hot-upgrade pause) may fail
            // long after the rates drop back to zero. Data
            // verification of successful reads is never relaxed.
            for (Tenant &t : _tenants)
                t.oracle->setFaultsActive(true);
        });
        sim.scheduleAt(t1, [this] {
            _log.record(_bed->sim().now(), "fault window CLOSE");
            for (int s = 0; s < _bed->ssdCount(); ++s)
                _bed->ssd(s).faults() = ssd::FaultConfig{};
        });
    }
}

void
Fuzzer::scheduleTiering(sim::Rng &rng)
{
    if (_bed->remoteNodes() == 0)
        return;
    sim::Simulator &sim = _bed->sim();
    core::MgmtConsole &console = _bed->console();
    core::Eid eid = _bed->controller().endpoint().eid();
    core::TieringManager &tier = _bed->controller().tiering();
    auto hz = static_cast<double>(_cfg.horizon);

    // Spills: pinned runs open with tenant 0's chunk 0 onto node 0,
    // so the forced node loss below has a spilled chunk to recover.
    int spills = _cfg.forceTiering
                     ? 2
                     : static_cast<int>(rng.uniformInt(0, 2));
    for (int i = 0; i < spills; ++i) {
        bool pinned = _cfg.forceTiering && i == 0;
        auto tenant_ix =
            pinned ? 0 : rng.uniformInt(0, _tenants.size() - 1);
        auto fn = _tenants[tenant_ix].fn;
        auto chunk_ix =
            pinned ? 0u
                   : static_cast<std::uint32_t>(rng.uniformInt(0, 1));
        int slot = pinned ? _bed->remoteSlot(0, 0) : -1;
        sim::Tick at = _start + static_cast<sim::Tick>(
                                    (pinned ? 0.05
                                            : rng.uniformDouble(0.05, 0.3)) *
                                    hz);
        ++_pendingControl;
        sim.scheduleAt(at, [this, &tier, fn, chunk_ix, slot] {
            _log.record(_bed->sim().now(),
                        "tier spill fn=" + std::to_string(fn) +
                            " chunk=" + std::to_string(chunk_ix));
            // May fail legally: chunk past the namespace end, remote
            // slot full, recovery in progress, or the copy aborted.
            tier.spill(fn, 1, chunk_ix, slot, [this](bool) {
                ++_controlOps;
                --_pendingControl;
            });
        });
    }

    // Promotes: the pinned one lands after the recovery window and
    // pulls the re-spilled chunk back local; random ones are legal
    // rejections when the chunk is not spilled.
    int promotes = _cfg.forceTiering
                       ? 1
                       : static_cast<int>(rng.uniformInt(0, 2));
    for (int i = 0; i < promotes; ++i) {
        bool pinned = _cfg.forceTiering && i == 0;
        auto tenant_ix =
            pinned ? 0 : rng.uniformInt(0, _tenants.size() - 1);
        auto fn = _tenants[tenant_ix].fn;
        auto chunk_ix =
            pinned ? 0u
                   : static_cast<std::uint32_t>(rng.uniformInt(0, 1));
        sim::Tick at = _start + static_cast<sim::Tick>(
                                    (pinned ? 0.85
                                            : rng.uniformDouble(0.3, 0.8)) *
                                    hz);
        ++_pendingControl;
        sim.scheduleAt(at, [this, &tier, fn, chunk_ix] {
            _log.record(_bed->sim().now(),
                        "tier promote fn=" + std::to_string(fn) +
                            " chunk=" + std::to_string(chunk_ix));
            tier.promote(fn, 1, chunk_ix, [this](bool) {
                ++_controlOps;
                --_pendingControl;
            });
        });
    }

    // Sometimes hand placement to the automatic heat policy too (the
    // post-horizon drain disarms it again).
    if (_cfg.forceTiering || rng.chance(0.5)) {
        sim::Tick at = _start + static_cast<sim::Tick>(0.1 * hz);
        ++_pendingControl;
        sim.scheduleAt(at, [this, &console, eid] {
            _log.record(_bed->sim().now(), "ctrl setTierPolicy");
            console.setTierPolicy(
                eid, 0.5, 8.0, sim::milliseconds(10), [this](bool ok) {
                    BMS_ASSERT(ok, "setTierPolicy verb failed");
                    ++_controlOps;
                    --_pendingControl;
                });
        });
    }

    // Link latency spikes: network fault injection, so failed tenant
    // I/Os (timeout exhaustion) are excused exactly like media-fault
    // windows. Kept well under the 250 ms request timeout so a lone
    // spike delays rather than kills a healthy request.
    int windows = static_cast<int>(rng.uniformInt(0, 2));
    for (int w = 0; w < windows; ++w) {
        int node = static_cast<int>(
            rng.uniformInt(0, _bed->remoteNodes() - 1));
        sim::Tick t0 = _start + static_cast<sim::Tick>(
                                    rng.uniformDouble(0.1, 0.6) * hz);
        sim::Tick t1 = t0 + static_cast<sim::Tick>(
                                rng.uniformDouble(0.05, 0.2) * hz);
        sim::Tick extra = sim::milliseconds(1 + rng.uniformInt(0, 49));
        sim.scheduleAt(t0, [this, node, extra] {
            _log.record(_bed->sim().now(),
                        "net spike OPEN node=" + std::to_string(node));
            ++_faultWindows;
            _faultsEverActive = true;
            _bed->link(node).setExtraDelay(extra);
            for (Tenant &t : _tenants)
                t.oracle->setFaultsActive(true);
        });
        sim.scheduleAt(t1, [this, node] {
            _log.record(_bed->sim().now(),
                        "net spike CLOSE node=" + std::to_string(node));
            _bed->link(node).setExtraDelay(0);
        });
    }

    // Storage-node loss: the torture centerpiece. The node model
    // starts dropping everything, tenant I/O to it errors out via
    // client timeouts (excused — this IS a fault), and the failNode
    // verb drives recovery: every spilled chunk flips to its local
    // shadow with zero data loss, then re-spills to survivors.
    if (_cfg.forceTiering || rng.chance(0.3)) {
        int node = _cfg.forceTiering
                       ? 0
                       : static_cast<int>(rng.uniformInt(
                             0, _bed->remoteNodes() - 1));
        sim::Tick at = _start + static_cast<sim::Tick>(
                                    (_cfg.forceTiering
                                         ? 0.55
                                         : rng.uniformDouble(0.4, 0.7)) *
                                    hz);
        ++_pendingControl;
        sim.scheduleAt(at, [this, &console, eid, node] {
            _log.record(_bed->sim().now(),
                        "tier failNode node=" + std::to_string(node));
            ++_faultWindows;
            _faultsEverActive = true;
            for (Tenant &t : _tenants)
                t.oracle->setFaultsActive(true);
            console.failNode(
                eid, static_cast<std::uint8_t>(node),
                [this](core::MiFailNodeResult r) {
                    BMS_ASSERT(r.ok, "failNode verb failed");
                    ++_controlOps;
                    --_pendingControl;
                });
        });
    }
}

void
Fuzzer::scheduleThinOps(sim::Rng &rng)
{
    if (!_cfg.enableThin)
        return;
    if (!_cfg.forceThin && !rng.chance(0.6))
        return;
    // Draw the clone tenant's whole shape up front so the schedule is
    // fixed by the seed before any callback fires.
    TenantSpec cspec;
    cspec.iodepth = 1 + static_cast<int>(rng.uniformInt(0, 7));
    cspec.readRatio = rng.uniformDouble(0.3, 0.7);
    cspec.flushProb = 0.005;
    cspec.minIoBlocks = 1;
    cspec.maxIoBlocks = 1u << rng.uniformInt(0, 4);
    cspec.sequential = rng.chance(0.3);
    cspec.trimProb = rng.uniformDouble(0.02, 0.10);
    sim::Rng crng = rng.fork();
    double snap_frac = _cfg.forceThin ? 0.3 : rng.uniformDouble(0.2, 0.45);
    double del_frac = _cfg.forceThin ? 0.75 : rng.uniformDouble(0.6, 0.9);
    sim::Tick at = _start + static_cast<sim::Tick>(
                               snap_frac *
                               static_cast<double>(_cfg.horizon));
    core::Eid eid = _bed->controller().endpoint().eid();
    ++_pendingControl;
    _bed->sim().scheduleAt(at, [this, eid, cspec, crng, del_frac] {
        attemptSnapshot(eid, 0, cspec, crng, del_frac);
    });
}

void
Fuzzer::attemptSnapshot(core::Eid eid, int attempt, TenantSpec cspec,
                        sim::Rng crng, double del_frac)
{
    // A migration or chunk op (allocation scrub, CoW, trim) holds
    // tenant 0's namespace locked and the verb is refused; retry like
    // the scratch destroy does. The budget matches the scrub's own
    // firmware-activation patience (20 s): an allocation scrub caught
    // under a hot upgrade legally pins the namespace for seconds.
    sim::Tick submit = _bed->sim().now();
    if (attempt % 25 == 0)
        _log.record(submit, "ctrl snapshot fn=0 attempt=" +
                                std::to_string(attempt));
    _bed->console().snapshot(
        eid, 0, 1,
        [this, eid, attempt, cspec, crng, del_frac,
         submit](std::optional<std::uint32_t> snap_id,
                 std::vector<core::MiSnapInfo> all) {
            if (!snap_id) {
                if (attempt >= 10'000)
                    fail("snapshot kept being refused");
                _bed->sim().scheduleAfter(
                    sim::milliseconds(2),
                    [this, eid, attempt, cspec, crng, del_frac] {
                        attemptSnapshot(eid, attempt + 1, cspec, crng,
                                        del_frac);
                    });
                return;
            }
            BMS_ASSERT(!all.empty(), "snapshot listing empty");
            ++_snapshots;
            ++_controlOps;
            // Freeze the oracle's view of what the pinned image may
            // hold: every stamp alive at any point since this verb was
            // submitted. Writes landing while the verb was on the MCTP
            // wire only widen the set — lenient, still sound.
            _cloneLineage = _tenants[0].oracle->captureLineage(submit);
            // The snapshot dies late in the window; the clone keeps
            // its own chunk pins and lives on.
            sim::Tick del_at = std::max(
                _start + static_cast<sim::Tick>(
                             del_frac * static_cast<double>(_cfg.horizon)),
                _bed->sim().now() + sim::milliseconds(1));
            ++_pendingControl;
            _bed->sim().scheduleAt(
                del_at, [this, eid, snap = *snap_id] {
                    _log.record(_bed->sim().now(),
                                "ctrl deleteSnapshot id=" +
                                    std::to_string(snap));
                    _bed->console().deleteSnapshot(
                        eid, snap, [this](bool ok) {
                            if (!ok)
                                fail("deleteSnapshot of a live "
                                     "snapshot refused");
                            ++_snapshotDeletes;
                            ++_controlOps;
                            --_pendingControl;
                        });
                });
            cloneFromSnapshot(eid, *snap_id, cspec, crng);
        });
}

void
Fuzzer::cloneFromSnapshot(core::Eid eid, std::uint32_t snap_id,
                          TenantSpec cspec, sim::Rng crng)
{
    // The clone rides the topmost VF — far above tenant functions
    // (<= 16) and the scratch VFs (pfCount..pfCount+3).
    auto fn = static_cast<pcie::FunctionId>(
        _bed->engine().config().totalFunctions() - 1);
    _log.record(_bed->sim().now(),
                "ctrl clone snap=" + std::to_string(snap_id) +
                    " fn=" + std::to_string(fn));
    _bed->console().clone(
        eid, snap_id, static_cast<std::uint8_t>(fn), core::QosLimits(),
        [this, fn, cspec, crng](std::optional<std::uint32_t> nsid) {
            if (!nsid)
                fail("clone of a live snapshot refused");
            ++_clones;
            ++_controlOps;
            // Driver bring-up is asynchronous (we are inside an event
            // handler); the cell hands the driver to its own ready
            // callback.
            auto drvp = std::make_shared<host::NvmeDriver *>(nullptr);
            auto ready = [this, fn, cspec, crng, drvp] {
                sim::Simulator &sim = _bed->sim();
                OracleDevice::Config ocfg = _t0cfg;
                ocfg.uid = 100 + _clones;
                auto *oracle = sim.make<OracleDevice>(
                    sim, "clone-oracle", **drvp, _bed->host().memory(),
                    _log, ocfg);
                oracle->adoptLineage(_cloneLineage);
                if (_faultsEverActive)
                    oracle->setFaultsActive(true);
                auto *wl = sim.make<TenantWorkload>(
                    sim, "clone-tenant", *oracle, crng, cspec);
                _tenants.push_back(Tenant{fn, oracle, wl});
                // Past the horizon (bring-up raced the drain) the
                // clone skips its workload; the final sweep still
                // verifies every inherited block against the lineage.
                if (sim.now() < _start + _cfg.horizon)
                    wl->start();
                --_pendingControl;
            };
            *drvp = &_bed->attachDriver(fn, *nsid, ready);
        });
}

void
Fuzzer::drain(const char *stage, const std::function<bool()> &done,
              sim::Tick timeout)
{
    sim::Simulator &sim = _bed->sim();
    sim::Tick deadline = sim.now() + timeout;
    while (!done()) {
        if (sim.now() >= deadline)
            fail(std::string("drain timed out at stage '") + stage + "'");
        sim.runUntil(sim.now() + sim::milliseconds(1));
    }
}

void
Fuzzer::finalSweep()
{
    // Read back every verified block once, sequentially: whatever the
    // schedule left behind must decode to an acceptable stamp.
    OracleDevice::SweepTally tally;
    for (Tenant &t : _tenants)
        t.oracle->sweep(tally);
    drain("final sweep", [&tally] { return tally.pending == 0; },
          sim::seconds(30));
    BMS_ASSERT_EQ(tally.failed, 0u,
                  "final sweep reads failed with fault rates at zero");
}

FuzzReport
Fuzzer::run()
{
    sim::Rng rng(_cfg.seed ^ 0xfa57'f00d'5eedULL);
    // Topology from the seed.
    int ssds = _cfg.minSsds +
               static_cast<int>(
                   rng.uniformInt(0, _cfg.maxSsds - _cfg.minSsds));
    harness::TestbedConfig tb;
    tb.ssdCount = ssds;
    tb.seed = _cfg.seed;
    tb.ssd.functionalData = true;
    // Occasionally run the store-and-forward ablation datapath.
    tb.engine.zeroCopy = !rng.chance(0.2);
    // Multi-queue front end: vary SQ count per tenant, the arbiter,
    // its burst, and the doorbell-batching window so fuzz runs cover
    // the RR/WRR fetch paths as well as fetch coalescing. Drawn from
    // a forked stream so the pre-existing pinned seeds (1-8,
    // 201-204) keep their exact topology and schedule draws.
    sim::Rng mq_rng(_cfg.seed ^ 0x9e37'79b9'7f4aULL);
    tb.ioQueues = static_cast<std::uint16_t>(1 << mq_rng.uniformInt(0, 3));
    tb.engine.frontArb = mq_rng.chance(0.5)
                             ? nvme::ArbitrationMode::RoundRobin
                             : nvme::ArbitrationMode::WeightedRoundRobin;
    tb.engine.frontArbBurst =
        static_cast<std::uint8_t>(1 << mq_rng.uniformInt(0, 3));
    if (mq_rng.chance(0.5))
        tb.engine.frontDoorbellBatch =
            sim::nanoseconds(100 << mq_rng.uniformInt(0, 2));
    if (tb.engine.frontArb == nvme::ArbitrationMode::WeightedRoundRobin) {
        // Mixed-priority queues; urgent stays rare so the weighted
        // classes actually get serviced.
        tb.sqPriorities = {nvme::kQPrioHigh, nvme::kQPrioMedium,
                           nvme::kQPrioLow};
        if (mq_rng.chance(0.25))
            tb.sqPriorities.push_back(nvme::kQPrioUrgent);
    }
    // Migration runs shrink chunks (8/16/32 MiB instead of 64 GiB) so
    // a whole-chunk copy fits inside the simulated horizon.
    if (_cfg.enableMigration)
        tb.chunkBytes = sim::mib(8ull << rng.uniformInt(0, 2));
    // Remote tier: everything remote draws from its own forked
    // stream, so seeds predating the tier keep their exact topology
    // and schedule draws whether or not it is enabled.
    sim::Rng remote_rng(_cfg.seed ^ 0x7e11'ca57'0ff5ULL);
    if (_cfg.maxRemoteNodes > 0) {
        tb.remoteNodes =
            _cfg.forceTiering
                ? _cfg.maxRemoteNodes
                : 1 + static_cast<int>(remote_rng.uniformInt(
                          0, _cfg.maxRemoteNodes - 1));
        tb.volumesPerNode =
            1 + static_cast<int>(remote_rng.uniformInt(0, 1));
        tb.remoteServer.ssd.functionalData = true;
        // Tier moves need migration-scale chunks even when local
        // migrations are off: a 64 MiB remote volume holds zero of
        // the default 64 GiB chunks.
        if (tb.chunkBytes == 0)
            tb.chunkBytes = sim::mib(8ull << remote_rng.uniformInt(0, 2));
        // Pinned runs need the opening spill to complete before the
        // node loss lands: 8 MiB at the 400 MB/s copy budget is
        // ~21 ms, which fits ahead of a loss at 55% of a 120 ms
        // horizon (32 MiB would not).
        if (_cfg.forceTiering)
            tb.chunkBytes = sim::mib(8);
    }
    // Thin provisioning / snapshots: like the remote tier, all thin
    // randomness forks its own stream so pre-thin pinned seeds keep
    // their exact draws.
    sim::Rng thin_rng(_cfg.seed ^ 0x7411'c0de'5a11ULL);
    _bed = std::make_unique<harness::BmStoreTestbed>(tb);
    _start = _bed->sim().now();
    _log.record(_start, "run start: seed=" + std::to_string(_cfg.seed) +
                            " ssds=" + std::to_string(ssds));

    buildTenants(rng, thin_rng);
    // Tenant bring-up (driver init, namespace attach) advances the
    // clock; the torture window opens after it, so every scheduled
    // event lands in the future even for short horizons.
    _start = _bed->sim().now();
    scheduleControlOps(rng);
    scheduleUpgrades(rng);
    scheduleMigrations(rng);
    scheduleFaultWindows(rng);
    scheduleTiering(remote_rng);
    scheduleThinOps(thin_rng);

    _bed->sim().runUntil(_start + _cfg.horizon);

    if (_bed->remoteNodes() > 0) {
        // Disarm the automatic tier policy: a periodic tick could
        // start fresh moves forever and the drain would never settle.
        core::TieringConfig off = _bed->controller().tiering().policy();
        off.policyPeriod = 0;
        _bed->controller().tiering().setPolicy(off);
    }

    // Stop tenants and wait out everything in flight — including I/O
    // latched across a multi-second firmware activation stall. The
    // stop loop lives inside the predicate: a clone tenant whose
    // driver bring-up raced the horizon joins _tenants mid-drain and
    // must be stopped too (pending control work holds the drain open
    // until it lands).
    std::size_t stopped = 0;
    int drained = 0;
    drain("tenant+control drain",
          [this, &stopped, &drained] {
              while (stopped < _tenants.size())
                  _tenants[stopped++].workload->stop(
                      [&drained] { ++drained; });
              return drained == static_cast<int>(stopped) &&
                     _pendingControl == 0;
          },
          sim::seconds(40));
    int tenants = static_cast<int>(_tenants.size());
    drain("migration drain",
          [this] { return _bed->controller().migration().idle(); },
          sim::seconds(40));
    // Chunk ops (allocation scrubs, CoW copies, trims) queue behind
    // migrations; let them settle before sweeping.
    drain("chunk-op drain",
          [this] {
              return _bed->engine().targetController().pendingChunkOps() ==
                         0 &&
                     _bed->controller().migration().idle();
          },
          sim::seconds(40));
    if (_bed->remoteNodes() > 0) {
        // Tier moves (including the post-loss respill chain) run
        // through the migration manager too; wait them out, then
        // re-check the migration queue they may have refilled.
        drain("tiering drain",
              [this] { return _bed->controller().tiering().idle(); },
              sim::seconds(40));
        drain("tier-move migration drain",
              [this] { return _bed->controller().migration().idle(); },
              sim::seconds(40));
    }
    finalSweep();

    // Whole-structure checks after the dust settles.
    int total_slots = _bed->ssdCount() +
                      _bed->remoteNodes() * _bed->config().volumesPerNode;
    for (int s = 0; s < total_slots; ++s)
        BMS_ASSERT_EQ(_bed->engine().adaptor(s).inflight(), 0u,
                      "adaptor ", s, " left with in-flight commands");
    core::MigrationGate &gate = _bed->engine().migrationGate();
    BMS_ASSERT(!gate.migrationActive(),
               "migration window left open after drain");
    BMS_ASSERT_EQ(gate.heldCount(), std::size_t(0),
                  "held writes left behind after drain");
    BMS_ASSERT_EQ(_bed->engine().targetController().pendingChunkOps(),
                  std::size_t(0), "chunk ops left behind after drain");
    // Everything is quiesced: pool refcounts must match the owner
    // census exactly (namespaces + surviving snapshots). Remote-tier
    // runs skip the strict form — a spilled chunk's local shadow
    // holds a reference with no record owner by design.
    if (_bed->remoteNodes() == 0)
        _bed->controller().namespaces().checkRefInvariants(true);
    for (Tenant &t : _tenants) {
        core::NsBinding *b = _bed->engine().findBinding(t.fn, 1);
        BMS_ASSERT(b, "tenant binding vanished: fn=", t.fn);
        b->map.checkInvariants();
    }

    FuzzReport rep;
    rep.seed = _cfg.seed;
    rep.tenants = tenants;
    rep.ssds = ssds;
    for (Tenant &t : _tenants) {
        rep.totalOps += t.workload->ops();
        rep.totalErrors += t.workload->errors();
        rep.verifiedBlocks += t.oracle->verifiedBlocks();
        rep.trims += t.oracle->trims();
        if (t.workload->maxCompletionGap() > rep.maxCompletionGap)
            rep.maxCompletionGap = t.workload->maxCompletionGap();
    }
    rep.controlOps = _controlOps;
    rep.upgrades = _upgrades;
    rep.upgradeRejections =
        _bed->controller().hotUpgrade().upgradesRejected();
    rep.faultWindows = _faultWindows;
    const core::MigrationManager &mig = _bed->controller().migration();
    rep.migrationsStarted = mig.started();
    rep.migrationsCompleted = mig.completed();
    rep.migrationsAborted = mig.aborted();
    rep.migrationsRejected = mig.rejected();
    rep.evacuations = mig.evacuations();
    rep.migratedBytes = mig.bytesCopied();
    for (int s = 0; s < _bed->ssdCount(); ++s) {
        rep.injectedMediaErrors += _bed->ssd(s).mediaErrors();
        rep.injectedLatencySpikes += _bed->ssd(s).latencySpikes();
    }
    rep.remoteNodes = _bed->remoteNodes();
    const core::TieringManager &tier = _bed->controller().tiering();
    rep.spills = tier.spills();
    rep.promotes = tier.promotes();
    rep.tierFailures = tier.failures();
    rep.nodeLosses = tier.nodeLosses();
    rep.chunksRecovered = tier.chunksRecovered();
    rep.chunksRespilled = tier.chunksRespilled();
    for (int n2 = 0; n2 < _bed->remoteNodes(); ++n2) {
        for (int v = 0; v < _bed->config().volumesPerNode; ++v) {
            rep.remoteTimeouts += _bed->remoteDevice(n2, v).timeouts();
            rep.remoteRetries += _bed->remoteDevice(n2, v).retries();
        }
    }
    const core::TargetController &tc = _bed->engine().targetController();
    rep.thinAllocs = tc.allocatedOnWrite();
    rep.trimmedChunks = tc.trimmedChunks();
    rep.dsmCommands = tc.dsmCommands();
    rep.zeroFillReads = tc.zeroFillReads();
    rep.cowCopies = tc.cowTriggers();
    rep.snapshots = _snapshots;
    rep.clones = _clones;
    rep.snapshotDeletes = _snapshotDeletes;
    rep.finishedAt = _bed->sim().now();

    if (!_faultsEverActive && rep.totalErrors != 0)
        fail("tenant I/O failed without any fault window");
    // The longest stall must stay well inside the host NVMe timeout
    // (30 s) or the transparency story breaks.
    if (rep.maxCompletionGap > sim::seconds(10))
        fail("completion gap exceeded 10 s: " +
             std::to_string(sim::toMs(rep.maxCompletionGap)) + " ms");
    return rep;
}

} // namespace bms::fuzz
