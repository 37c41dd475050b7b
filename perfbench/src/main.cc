/**
 * @file
 * perfbench — the repository's benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * Builds the workload's world many times (the median build time is
 * `setup_s`), runs the timed phase on one more build, checks the
 * outputs, prints every metric with its unit and base, writes a JSON
 * report to DIR, and ends stdout with one JSON line:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). A traced run times the phase twice on two identical
 * builds — untraced, then traced — so it also reports the tracing
 * overhead and checks that tracing changed no simulated outcome.
 * Exit status is 0 only when every check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "probe.hh"
#include "workloads.hh"

using namespace perfbench;
using bms::sim::toSec;

namespace {

/**
 * Set-up sampling: the world is built over and over for kSetupWindowNs
 * of wall time (at least kMinSetupsPerWindow builds) before the timed
 * phase, and as many times again after it; setup_s is the median build
 * time. Host speed on a shared machine shifts within seconds, so builds
 * made in one burst all read one speed; two windows a timed phase apart
 * let the median follow the run's typical speed, as wall_s does.
 */
constexpr std::int64_t kSetupWindowNs = 2'000'000'000;
constexpr int kMinSetupsPerWindow = 4;

/**
 * The metric names of BENCHMARK.json, in its order (selftest.py checks
 * that the final line matches the file). wall_s and sim_ios_per_s are
 * printed but not listed: on a shared VM their run-to-run spread
 * (0.11-0.30 of the median over ten runs) can exceed any bound the
 * benchmark may set.
 */
const std::vector<std::string> kEndToEnd = {
    "setup_s",           "peak_rss_mib",      "model_kiops",
    "model_read_p50_us", "model_read_p99_us",
};

const std::vector<std::string> kPerLayer = {
    "sim.events_per_io",
    "sim.ns_per_event",
    "sim.pending_max",
    "sim.loop_self_share",
    "workload.fio_self_share",
    "fuzz.oracle_self_share",
    "fuzz.verified_blocks_per_io",
    "host.submit_self_share",
    "host.interrupts_per_io",
    "host.mem_pages",
    "nvme.sqes_per_fetch",
    "nvme.arb_rounds_per_io",
    "nvme.tenant_iops_min_share",
    "engine.forwards_per_io",
    "engine.prp_lists_per_io",
    "engine.qos_buffered_share",
    "engine.chip_bytes_per_io",
    "engine.gate_mirrored_writes",
    "engine.gate_held_writes",
    "ssd.write_amp",
    "ssd.read_amp",
    "ssd.space_amp",
    "ssd.flash_pages",
    "ctrl.migration_bytes",
    "ctrl.migration_mb_per_s",
    "ctrl.migrations_aborted",
    "ctrl.evacuated_chunks",
    "mgmt.verbs_per_admit",
    "mgmt.call_self_share",
    "fleet.wave_ops_failed",
    "trace.overhead_share",
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string base; ///< numerator/denominator or sample count
};

/** Everything one timed phase leaves behind once its world is gone. */
struct Phase
{
    std::int64_t wallNs = 0;
    std::vector<std::int64_t> sliceNs;
    std::size_t pendingMax = 0;
    Snapshot before, after;
    std::uint64_t submitted = 0, completed = 0, failed = 0;
    std::uint64_t readBytes = 0, writeBytes = 0;
    std::uint64_t windowIos = 0;
    Tick windowSpan = 0;
    LatencyHistogram readLat, writeLat, flushLat;
    std::vector<TenantTally> tenants;
    std::uint64_t verifiedBlocks = 0;
    std::uint64_t windowBytes = 0;
    std::optional<FleetOutputs> fleet;
    std::map<std::string, std::int64_t> selfNs; ///< per span name
    std::uint64_t spanCount = 0;
    std::vector<std::string> violations;

    double wallS() const { return double(wallNs) / 1e9; }
};

const char *const kSpanNames[] = {
    "sim.loop",    "host.submit", "workload.fio",
    "fuzz.oracle", "mgmt.call",   "mgmt.reply",
};

Phase
runPhase(World &w, Tracer &tracer)
{
    Phase ph;
    snapshotSim(w.sim(), ph.before);
    w.snapshot(ph.before);
    std::uint64_t verified0 = w.verifiedBlocks();
    tracer.resetTotals();
    Slicer slicer(tracer);
    std::int64_t t0 = wallNs();
    w.runTimed(slicer);
    ph.wallNs = wallNs() - t0;
    snapshotSim(w.sim(), ph.after);
    w.snapshot(ph.after);

    ph.sliceNs = slicer.sliceNs();
    ph.pendingMax = slicer.pendingMax();
    const Probe &p = w.probe();
    ph.submitted = p.submitted;
    ph.completed = p.completed;
    ph.failed = p.failed;
    ph.readBytes = p.readBytes;
    ph.writeBytes = p.writeBytes;
    ph.windowIos = p.windowIos;
    ph.windowSpan = p.windowEnd > p.windowStart ? p.windowEnd - p.windowStart
                                                : 0;
    ph.readLat = p.readLat;
    ph.writeLat = p.writeLat;
    ph.flushLat = p.flushLat;
    ph.tenants = p.tenants;
    ph.verifiedBlocks = w.verifiedBlocks() - verified0;
    ph.windowBytes = w.verifiedWindowBytes();
    if (w.fleet() != nullptr)
        ph.fleet = *w.fleet();
    for (const char *name : kSpanNames)
        ph.selfNs[name] = tracer.selfNs(name);
    ph.spanCount = tracer.closedSpans();
    ph.violations = w.violations();
    if (ph.submitted != ph.completed)
        ph.violations.push_back("submitted and completed I/O counts differ");
    if (ph.completed == 0)
        ph.violations.push_back("no I/O completed");
    return ph;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
fmtBase(double num, double den)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.0f / %.0f", num, den);
    return buf;
}

std::string
fmtCount(std::size_t n)
{
    return "n=" + std::to_string(n);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Tenant I/Os plus console verbs. */
std::uint64_t
attempted(const Phase &ph)
{
    return ph.submitted + (ph.fleet ? ph.fleet->verbsSent : 0);
}

/** Failed I/Os and verbs, plus one per violated check. */
std::uint64_t
failed(const Phase &ph, std::size_t violations)
{
    return ph.failed + (ph.fleet ? ph.fleet->verbsFailed : 0) + violations;
}

std::vector<Metric>
endToEnd(const Phase &ph, const std::vector<double> &setups,
         std::size_t violations)
{
    std::vector<Metric> m;
    double wall = ph.wallS();
    m.push_back({"setup_s", median(setups), "s",
                 "median of " + std::to_string(setups.size()) + " builds"});
    m.push_back({"wall_s", wall, "s", fmtCount(ph.sliceNs.size()) + " slices"});
    m.push_back({"sim_ios_per_s", ratio(double(ph.completed), wall), "1/s",
                 fmtBase(double(ph.completed), wall)});
    m.push_back({"peak_rss_mib", peakRssMib(), "MiB", "ru_maxrss"});
    m.push_back({"model_kiops",
                 ratio(double(ph.windowIos), toSec(ph.windowSpan)) / 1e3,
                 "kIOPS", fmtBase(double(ph.windowIos), double(ph.windowSpan))
                              + " ns"});
    auto us = [&m](const char *name, const LatencyHistogram &h, double q) {
        m.push_back({name, double(h.quantile(q)) / 1e3, "us",
                     fmtCount(h.count())});
    };
    us("model_read_p50_us", ph.readLat, 0.5);
    us("model_read_p99_us", ph.readLat, 0.99);
    if (ph.writeLat.count() != 0) {
        us("model_write_p50_us", ph.writeLat, 0.5);
        us("model_write_p99_us", ph.writeLat, 0.99);
    }
    if (ph.flushLat.count() != 0)
        us("model_flush_p99_us", ph.flushLat, 0.99);
    if (ph.fleet) {
        const FleetOutputs &f = *ph.fleet;
        m.push_back({"model_wave_makespan_s", toSec(f.wave.makespan), "s",
                     std::to_string(f.wave.opsOk) + " slot ops"});
        Tick gap = 0;
        for (const TenantTally &t : ph.tenants)
            gap = std::max(gap, t.maxGap);
        m.push_back({"model_io_pause_max_ms", bms::sim::toMs(gap), "ms",
                     fmtCount(ph.tenants.size()) + " tenants"});
        m.push_back({"model_verb_p99_ms", bms::sim::toMs(f.verbRtt.p99()),
                     "ms", fmtCount(f.verbRtt.count())});
    }
    double tried = double(attempted(ph));
    double bad = double(failed(ph, violations));
    m.push_back({"op_fail_share", ratio(bad, tried), "share",
                 fmtBase(bad, tried)});
    return m;
}

std::vector<Metric>
perLayer(const Phase &ph, const Phase *traced)
{
    const Snapshot &a = ph.before;
    const Snapshot &b = ph.after;
    auto d = [&a, &b](const char *stat) { return b.stat(stat) - a.stat(stat); };
    double ios = double(ph.completed);
    double events = double(b.events - a.events);
    std::vector<Metric> m;
    auto per_io = [&m, ios](const char *name, double num, const char *unit) {
        m.push_back({name, ratio(num, ios), unit, fmtBase(num, ios)});
    };

    per_io("sim.events_per_io", events, "events/io");
    m.push_back({"sim.ns_per_event", ratio(double(ph.wallNs), events), "ns",
                 fmtBase(double(ph.wallNs), events)});
    m.push_back({"sim.pending_max", double(ph.pendingMax), "events",
                 "sampled at slice ends"});

    // Self time of each layer's spans over the traced phase's wall time.
    auto share = [&m, traced](const char *name, std::vector<const char *> spans) {
        if (traced == nullptr)
            return;
        double self = 0.0;
        for (const char *s : spans)
            self += double(traced->selfNs.at(s));
        double wall = double(traced->wallNs);
        m.push_back({name, ratio(self, wall), "share",
                     fmtBase(self, wall) + " ns"});
    };
    share("sim.loop_self_share", {"sim.loop"});
    share("workload.fio_self_share", {"workload.fio"});
    share("fuzz.oracle_self_share", {"fuzz.oracle"});
    per_io("fuzz.verified_blocks_per_io", double(ph.verifiedBlocks),
           "blocks/io");
    share("host.submit_self_share", {"host.submit"});
    per_io("host.interrupts_per_io", double(b.interrupts - a.interrupts),
           "irq/io");
    per_io("host.cpu_us_per_io", double(b.cpuBusy - a.cpuBusy) / 1e3, "us");
    m.push_back({"host.mem_pages", double(b.hostPages), "pages",
                 "allocated at end"});

    m.push_back({"nvme.sqes_per_fetch",
                 ratio(d("fn.fetchedSqes"), d("fn.fetchBatches")), "sqes/fetch",
                 fmtBase(d("fn.fetchedSqes"), d("fn.fetchBatches"))});
    per_io("nvme.arb_rounds_per_io", d("fn.arbRounds"), "rounds/io");
    double min_ios = 0.0, sum_ios = 0.0;
    for (std::size_t i = 0; i < ph.tenants.size(); ++i) {
        double n = double(ph.tenants[i].ios);
        min_ios = i == 0 ? n : std::min(min_ios, n);
        sum_ios += n;
    }
    double mean_ios = ratio(sum_ios, double(ph.tenants.size()));
    m.push_back({"nvme.tenant_iops_min_share", ratio(min_ios, mean_ios),
                 "share", fmtBase(min_ios, mean_ios) + " (min/mean)"});

    per_io("engine.forwards_per_io", d("bms.target.forwarded"), "cmds/io");
    per_io("engine.prp_lists_per_io", d("bms.target.prpListsRewritten"),
           "lists/io");
    double passed = d("bms.qos.passed"), buffered = d("bms.qos.buffered");
    m.push_back({"engine.qos_buffered_share",
                 ratio(buffered, passed + buffered), "share",
                 fmtBase(buffered, passed + buffered)});
    per_io("engine.chip_bytes_per_io", d("adaptor.chipBytes"), "B/io");
    m.push_back({"engine.gate_mirrored_writes", d("bms.miggate.mirroredWrites"),
                 "writes", "timed phase"});
    m.push_back({"engine.gate_held_writes", d("bms.miggate.heldWrites"),
                 "writes", "timed phase"});

    double ssd_w = d("ssd.writeBytes"), ssd_r = d("ssd.readBytes");
    m.push_back({"ssd.write_amp", ratio(ssd_w, double(ph.writeBytes)),
                 "ratio", fmtBase(ssd_w, double(ph.writeBytes)) + " B"});
    m.push_back({"ssd.read_amp", ratio(ssd_r, double(ph.readBytes)), "ratio",
                 fmtBase(ssd_r, double(ph.readBytes)) + " B"});
    double flash = double(b.flashPages) * 4096.0;
    m.push_back({"ssd.space_amp", ratio(flash, double(ph.windowBytes)),
                 "ratio", fmtBase(flash, double(ph.windowBytes)) + " B"});
    m.push_back({"ssd.flash_pages", double(b.flashPages), "pages",
                 "allocated at end"});

    double mig_bytes = d("bmsc.migration.bytesCopied");
    Tick copy = ph.fleet ? ph.fleet->copyTicks : 0;
    m.push_back({"ctrl.migration_bytes", mig_bytes, "B", "timed phase"});
    m.push_back({"ctrl.migration_mb_per_s", ratio(mig_bytes / 1e6, toSec(copy)),
                 "MB/s", fmtBase(mig_bytes, double(copy)) + " B/ns"});
    m.push_back({"ctrl.migrations_aborted", d("bmsc.migration.aborted"),
                 "count", "timed phase"});
    double evac = ph.fleet ? double(ph.fleet->wave.evacuatedChunks) : 0.0;
    m.push_back({"ctrl.evacuated_chunks", evac, "chunks", "WaveReport"});

    double admits = ph.fleet ? double(ph.fleet->admitWallMs.size()) : 0.0;
    double admit_verbs = ph.fleet ? double(ph.fleet->admitVerbs) : 0.0;
    m.push_back({"mgmt.verbs_per_admit", ratio(admit_verbs, admits),
                 "verbs/admit", fmtBase(admit_verbs, admits)});
    share("mgmt.call_self_share", {"mgmt.call", "mgmt.reply"});
    if (ph.fleet) {
        const LatencyHistogram &rtt = ph.fleet->verbRtt;
        m.push_back({"mgmt.verb_p50_ms.ioStats", bms::sim::toMs(rtt.p50()),
                     "ms", fmtCount(rtt.count())});
        double sum_wall = 0.0, sum_model = 0.0;
        for (double v : ph.fleet->admitWallMs)
            sum_wall += v;
        for (double v : ph.fleet->admitModelMs)
            sum_model += v;
        m.push_back({"fleet.admit_wall_ms", ratio(sum_wall, admits), "ms",
                     fmtCount(ph.fleet->admitWallMs.size()) + " admits"});
        m.push_back({"fleet.admit_model_ms", ratio(sum_model, admits), "ms",
                     fmtCount(ph.fleet->admitModelMs.size()) + " admits"});
    }
    double wave_failed = ph.fleet ? double(ph.fleet->wave.opsFailed) : 0.0;
    m.push_back({"fleet.wave_ops_failed", wave_failed, "count", "WaveReport"});
    if (traced != nullptr) {
        double over = traced->wallS() - ph.wallS();
        m.push_back({"trace.overhead_s", over, "s",
                     "traced wall_s - untraced wall_s"});
        m.push_back({"trace.overhead_share", ratio(over, ph.wallS()), "share",
                     std::to_string(traced->spanCount) + " spans"});
    }
    return m;
}

/** Metrics read from host clocks or host memory: they vary between
 *  runs of one seed. Every other metric is simulated. */
bool
fromHost(const std::string &name)
{
    static const std::set<std::string> host = {
        "setup_s",          "wall_s",           "sim_ios_per_s",
        "peak_rss_mib",     "sim.ns_per_event", "fleet.admit_wall_ms",
        "trace.overhead_s", "trace.overhead_share"};
    return host.count(name) != 0 || name.ends_with("_self_share");
}

/**
 * Simulated outcomes of one phase, which must repeat exactly for a
 * seed: every simulated metric, the I/O, verb and failure counts, the
 * wave report and every counter difference of the snapshot.
 */
std::map<std::string, std::string>
outcomes(const Phase &ph)
{
    std::map<std::string, std::string> o;
    auto num = [&o](const std::string &k, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        o[k] = buf;
    };
    auto count = [&o](const std::string &k, std::uint64_t v) {
        o[k] = std::to_string(v);
    };
    for (const std::vector<Metric> &ms :
         {endToEnd(ph, {}, ph.violations.size()), perLayer(ph, nullptr)}) {
        for (const Metric &m : ms) {
            if (!fromHost(m.name))
                num(m.name, m.value);
        }
    }
    count("io.submitted", ph.submitted);
    count("io.completed", ph.completed);
    count("io.failed", ph.failed);
    count("io.read_bytes", ph.readBytes);
    count("io.write_bytes", ph.writeBytes);
    count("io.reads", ph.readLat.count());
    count("io.writes", ph.writeLat.count());
    count("io.flushes", ph.flushLat.count());
    count("io.window_ios", ph.windowIos);
    count("io.window_ns", ph.windowSpan);
    count("io.verified_blocks", ph.verifiedBlocks);
    count("violations", ph.violations.size());
    Tick gap = 0, lat = 0;
    for (const TenantTally &t : ph.tenants) {
        gap = std::max(gap, t.maxGap);
        lat = std::max(lat, t.maxLatency);
    }
    count("tenant.gap_max_ns", gap);
    count("tenant.latency_max_ns", lat);
    if (ph.fleet) {
        const FleetOutputs &f = *ph.fleet;
        count("fleet.verbs_sent", f.verbsSent);
        count("fleet.verbs_failed", f.verbsFailed);
        count("fleet.verb_replies", f.verbRtt.count());
        count("fleet.admit_verbs", f.admitVerbs);
        count("fleet.copy_ns", f.copyTicks);
        count("fleet.trace_hash", f.traceHash);
        count("wave.state", static_cast<std::uint64_t>(f.wave.state));
        count("wave.ops_ok", f.wave.opsOk);
        count("wave.ops_failed", f.wave.opsFailed);
        count("wave.gate_trips", f.wave.gateTrips);
        count("wave.pauses", f.wave.pauses);
        count("wave.makespan_ns", f.wave.makespan);
        count("wave.evacuated_chunks", f.wave.evacuatedChunks);
    }
    const Snapshot &a = ph.before, &b = ph.after;
    for (const auto &[k, v] : b.stats)
        num("stat." + k, v - a.stat(k));
    for (const auto &[k, v] : a.stats) {
        if (b.stats.count(k) == 0)
            num("stat." + k, -v);
    }
    count("sim.events", b.events - a.events);
    count("sim.now_ns", b.now);
    count("host.interrupts", b.interrupts - a.interrupts);
    count("host.cpu_busy_ns", b.cpuBusy - a.cpuBusy);
    count("host.pages", b.hostPages);
    count("ssd.pages", b.flashPages);
    return o;
}

/** FNV-1a hash of @p o, as 16 hex digits. */
std::string
fingerprint(const std::map<std::string, std::string> &o)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &[k, v] : o)
        mix(k + "=" + v + "\n");
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

const Metric *
find(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-30s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.base.c_str());
}

void
writeList(std::FILE *f, const char *key, const std::vector<double> &v)
{
    std::fprintf(f, "  %s: [", jsonString(key).c_str());
    for (std::size_t i = 0; i < v.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", jsonNumber(v[i]).c_str());
    std::fprintf(f, "],\n");
}

bool
writeReport(const std::string &path, const Phase &ph,
            const std::vector<Metric> &e2e, const std::vector<Metric> &layers,
            const std::vector<double> &setups,
            const std::map<std::string, std::string> &outs,
            const std::vector<std::string> &violations)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    auto dump = [f](const char *key, const std::vector<Metric> &ms) {
        std::fprintf(f, "  %s: {\n", jsonString(key).c_str());
        for (std::size_t i = 0; i < ms.size(); ++i) {
            const Metric &m = ms[i];
            std::fprintf(f, "    %s: {\"value\": %s, \"unit\": %s, \"base\": %s}%s\n",
                         jsonString(m.name).c_str(), jsonNumber(m.value).c_str(),
                         jsonString(m.unit).c_str(), jsonString(m.base).c_str(),
                         i + 1 < ms.size() ? "," : "");
        }
        std::fprintf(f, "  },\n");
    };
    std::fprintf(f, "{\n");
    dump("end_to_end", e2e);
    dump("per_layer", layers);
    writeList(f, "setup_samples_s", setups);
    std::vector<double> slices;
    for (std::int64_t ns : ph.sliceNs)
        slices.push_back(double(ns) / 1e6);
    std::fprintf(f, "  \"slice_ms_median\": %s,\n",
                 jsonNumber(median(slices)).c_str());
    // Wall time of each tenth of the timed phase's slices, in order:
    // shows whether a slow run was slow throughout or in bursts.
    std::vector<double> tenths;
    for (std::size_t k = 0; k < 10; ++k) {
        double sum = 0.0;
        for (std::size_t i = k * slices.size() / 10;
             i < (k + 1) * slices.size() / 10; ++i)
            sum += slices[i] / 1e3;
        tenths.push_back(sum);
    }
    writeList(f, "tenths_s", tenths);
    std::fprintf(f, "  \"fingerprint\": %s,\n",
                 jsonString(fingerprint(outs)).c_str());
    std::fprintf(f, "  \"outcomes\": {\n");
    std::size_t n = 0;
    for (const auto &[k, v] : outs)
        std::fprintf(f, "    %s: %s%s\n", jsonString(k).c_str(),
                     jsonString(v).c_str(), ++n < outs.size() ? "," : "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"violations\": [");
    for (std::size_t i = 0; i < violations.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", jsonString(violations[i]).c_str());
    std::fprintf(f, "]\n}\n");
    return std::fclose(f) == 0;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fanout_read|verified_rw|fleet_replace --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool trace = false;
    std::string out_dir = ".bench_out";
    bool have_workload = false;
    auto number = [](const std::string &v, unsigned long long &out) {
        char *end = nullptr;
        out = std::strtoull(v.c_str(), &end, 10);
        return !v.empty() && *end == '\0';
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        unsigned long long n = 0;
        if (a == "--workload") {
            opts.workload = v;
            have_workload = true;
        } else if (a == "--seed" && number(v, n)) {
            opts.seed = n;
        } else if (a == "--seconds" && number(v, n) && n >= 1 && n <= 600) {
            opts.seconds = static_cast<int>(n);
        } else if (a == "--trace" && (v == "0" || v == "1")) {
            trace = v == "1";
        } else if (a == "--out") {
            out_dir = v;
        } else {
            return usage(("bad flag or value: " + a + " " + v).c_str());
        }
    }
    const auto &names = workloadNames();
    if (!have_workload ||
        std::find(names.begin(), names.end(), opts.workload) == names.end())
        return usage("unknown or missing --workload");

    // Worlds built only to sample set-up time around the timed ones: one
    // untraced world, and a traced one when --trace 1.
    std::vector<double> setups;
    auto build = [&setups, &opts](Tracer &tracer) {
        std::int64_t s0 = wallNs();
        std::unique_ptr<World> world = makeWorld(opts, tracer);
        setups.push_back(double(wallNs() - s0) / 1e9);
        return world;
    };
    int window = 0;
    for (std::int64_t end = wallNs() + kSetupWindowNs;
         window < kMinSetupsPerWindow || wallNs() < end; ++window) {
        Tracer off(false);
        build(off);
    }
    Tracer plain_tracer(false);
    const Phase ph = runPhase(*build(plain_tracer), plain_tracer);
    std::optional<Phase> traced;
    std::unique_ptr<Tracer> kept_tracer;
    if (trace) {
        kept_tracer = std::make_unique<Tracer>(true);
        traced = runPhase(*build(*kept_tracer), *kept_tracer);
    }
    for (int n = 0; n < window; ++n) {
        Tracer off(false);
        build(off);
    }

    std::vector<std::string> violations = ph.violations;
    std::map<std::string, std::string> outs = outcomes(ph);
    if (traced) {
        for (const std::string &v : traced->violations)
            violations.push_back("traced: " + v);
        std::map<std::string, std::string> touts = outcomes(*traced);
        std::string diff;
        for (const auto &[k, v] : outs) {
            auto it = touts.find(k);
            if (it == touts.end() || it->second != v)
                diff += " " + k;
        }
        if (touts.size() != outs.size())
            diff += " (outcome sets differ)";
        if (!diff.empty())
            violations.push_back("traced phase diverged from untraced in" +
                                 diff);
    }
    std::vector<Metric> e2e = endToEnd(ph, setups, violations.size());
    std::vector<Metric> layers = perLayer(ph, traced ? &*traced : nullptr);
    std::uint64_t tried = attempted(ph);
    std::uint64_t bad = failed(ph, violations.size());

    std::string stem = out_dir + "/" + opts.workload + "-seed" +
                       std::to_string(opts.seed) + "-trace" +
                       (trace ? "1" : "0");
    std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                trace ? 1 : 0);
    printTable("end-to-end:", e2e);
    printTable("per-layer:", layers);
    std::printf("fingerprint: %s (%zu outcomes)\n", fingerprint(outs).c_str(),
                outs.size());
    for (const std::string &v : violations)
        std::printf("VIOLATION: %s\n", v.c_str());
    if (!writeReport(stem + ".json", ph, e2e, layers, setups, outs,
                     violations))
        std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
    if (kept_tracer && !kept_tracer->writeCsv(stem + "-spans.csv"))
        std::fprintf(stderr, "perfbench: cannot write spans\n");

    bool correct = bad == 0;
    const std::vector<std::string> &wanted = trace ? kPerLayer : kEndToEnd;
    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tried) +
                       ", \"failed\": " + std::to_string(bad) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        const Metric *m = find(all, wanted[i]);
        double v = m ? m->value : 0.0;
        std::string unit = m ? m->unit : "";
        line += (i ? ", " : "") + jsonString(wanted[i]) + ": {\"value\": " +
                jsonNumber(v) + ", \"unit\": " + jsonString(unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
