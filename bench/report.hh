/**
 * @file
 * The one record a gated bench writes.
 *
 * `bench::Report` owns what the gated benches share: the command
 * line, build provenance, the JSON record and its one schema
 *
 *   {"bench", "provenance": {gitSha, buildType, compiler, sanitize,
 *    nproc, mode, wallSeconds}, "values": {...},
 *    "rows": {ARRAY: [{...}, ...]},
 *    "gates": {GATE: {value, floor | limit, pass}}, "pass"},
 *
 * the gate checks, one gate summary and the exit status. It reads the
 * wall clock, so only bench binaries link it (bms-lint R1).
 */

#ifndef BMS_BENCH_REPORT_HH
#define BMS_BENCH_REPORT_HH

#include <chrono>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "host/block.hh"
#include "sim/simulator.hh"
#include "workload/fio.hh"

namespace bms::bench {

/** Ordered JSON fields: a record's scalars or one row of an array. */
class Fields
{
  public:
    /** A number printed with @p decimals digits after the point; a
     *  count prints exactly up to 2^53. */
    Fields &add(const std::string &key, double v, int decimals = 0);

    Fields &add(const std::string &key, const std::string &v)
    {
        return addJson(key, "\"" + v + "\"");
    }

    std::string json() const { return "{" + _json + "}"; }

  private:
    Fields &addJson(const std::string &key, const std::string &json);

    std::string _json;
};

/** Flags, provenance, values, gates and exit status of one bench run. */
class Report
{
  public:
    /**
     * Parse the command line: `--quick` (only when @p has_quick),
     * `--json=PATH` (default @p default_json), `--paranoid` and
     * `--log=LEVEL`; any other argument exits 2. Starts the wall
     * clock.
     */
    Report(std::string bench, int argc, char **argv,
           std::string default_json, bool has_quick);

    bool quick() const { return _quick; }

    /** True in a sanitizer build (BMS_SANITIZE), which runs the
     *  simulator about an order of magnitude slower. */
    static bool sanitized();

    /** Wall seconds since the Report was built. */
    double
    wallSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

    Fields &values() { return _values; }

    /** Append a row to the array @p name; the reference is valid
     *  until the next row() call. */
    Fields &row(const std::string &name) { return _rows[name].emplace_back(); }

    /** Gate: pass when @p value >= @p bound. */
    void
    floor(const std::string &gate, double value, double bound)
    {
        _gates.push_back(Gate{gate, value, bound, true});
    }

    /** Gate: pass when @p value <= @p bound. */
    void
    limit(const std::string &gate, double value, double bound)
    {
        _gates.push_back(Gate{gate, value, bound, false});
    }

    /**
     * harness::runFio / runFioMany, gating the closed-loop window on
     * Little's law as `littlesLaw.<gate>`: each device keeps
     * numjobs x iodepth requests in flight, so the summed IOPS x mean
     * latency must match them within 1 %. An accounting slip in IOPS
     * or latency then fails even when both numbers look plausible.
     */
    workload::FioResult runFio(const std::string &gate, sim::Simulator &sim,
                               host::BlockDeviceIf &dev,
                               const workload::FioJobSpec &spec);
    std::vector<workload::FioResult>
    runFioMany(const std::string &gate, sim::Simulator &sim,
               const std::vector<host::BlockDeviceIf *> &devs,
               const workload::FioJobSpec &spec);

    /**
     * Print the gate summary and write the record. Returns the exit
     * status: 0 when every gate passes and the record is written.
     */
    int finish();

  private:
    struct Gate
    {
        std::string name;
        double value = 0.0;
        double bound = 0.0;
        bool floor = true;
        bool pass() const { return floor ? value >= bound : value <= bound; }
    };

    void littlesLaw(const std::string &gate,
                    std::span<const workload::FioResult> results,
                    const workload::FioJobSpec &spec);
    std::string json(bool pass) const;

    std::string _bench;
    std::string _path;
    bool _quick = false;
    std::chrono::steady_clock::time_point _start;
    Fields _values;
    std::map<std::string, std::vector<Fields>> _rows;
    std::vector<Gate> _gates;
};

} // namespace bms::bench

#endif // BMS_BENCH_REPORT_HH
