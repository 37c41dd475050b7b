/**
 * @file
 * The one output of every bench: what it prints and what it records.
 *
 * `bench::Report` owns what the benches share: the command line,
 * build provenance, the printed tables, the JSON record and its one
 * schema
 *
 *   {"bench", "provenance": {gitSha, buildType, compiler, sanitize,
 *    nproc, mode, wallSeconds}, "values": {...},
 *    "rows": {ARRAY: [{...}, ...]},
 *    "gates": {GATE: {value, floor and/or limit, pass}}, "pass"},
 *
 * the gate checks, one gate summary and the exit status. A bench
 * prints its numbers only through the Report: a row array prints as
 * a fixed-width table whose columns are the field keys and whose
 * cells are the values as recorded, so the terminal and the record
 * cannot disagree. It reads the wall clock, so only bench binaries
 * link it (bms-lint R1).
 */

#ifndef BMS_BENCH_REPORT_HH
#define BMS_BENCH_REPORT_HH

#include <chrono>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "host/block.hh"
#include "sim/simulator.hh"
#include "workload/fio.hh"

namespace bms::bench {

/** Ordered fields: a record's scalars or one row of an array. */
class Fields
{
  public:
    /** A number printed with @p decimals digits after the point; a
     *  count prints exactly up to 2^53. */
    Fields &add(const std::string &key, double v, int decimals = 0);

    Fields &add(const std::string &key, const std::string &v)
    {
        _fields.push_back(Field{key, v, true});
        return *this;
    }

    std::string json() const;

  private:
    friend class Report;

    struct Field
    {
        std::string key;
        /** The value as printed: a fixed-point number or the string. */
        std::string text;
        bool quoted = false;
    };

    std::vector<Field> _fields;
};

/** Flags, provenance, tables, values, gates and exit status of one
 *  bench run. */
class Report
{
  public:
    /**
     * Parse the command line: `--quick` (only when @p has_quick),
     * `--json=PATH` (default @p default_json; none when empty),
     * `--paranoid` and `--log=LEVEL`; any other argument exits 2.
     * Starts the wall clock.
     */
    Report(std::string bench, int argc, char **argv,
           std::string default_json = {}, bool has_quick = false);

    bool quick() const { return _quick; }

    /** True in a sanitizer build (BMS_SANITIZE), which runs the
     *  simulator about an order of magnitude slower. */
    static bool sanitized();

    /** True when the compiler optimized this build (any build type
     *  but Debug); an unoptimized one is several times slower. */
    static bool optimized();

    /** Wall seconds since the Report was built. */
    double
    wallSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

    /** The record's scalars; finish() prints them. */
    Fields &values() { return _values; }

    /** Append a row to the array @p name; the reference is valid
     *  until the next row() call. Every row of an array carries the
     *  same keys in the same order. */
    Fields &row(const std::string &name) { return _rows[name].emplace_back(); }

    /** Print the row array @p name as a fixed-width table under
     *  @p title: one column per key, each cell as recorded. */
    void table(const std::string &name, const std::string &title) const;

    /** Gate: pass when @p floor <= @p value <= @p limit. */
    void band(const std::string &gate, double value, double floor,
              double limit);

    /** Gate: pass when @p value >= @p bound. */
    void
    floor(const std::string &gate, double value, double bound)
    {
        band(gate, value, bound, std::numeric_limits<double>::infinity());
    }

    /** Gate: pass when @p value <= @p bound. */
    void
    limit(const std::string &gate, double value, double bound)
    {
        band(gate, value, -std::numeric_limits<double>::infinity(), bound);
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
     * Print the values and the gate summary and write the record (if
     * a path is set). Returns the exit status: 0 when every gate
     * passes and the record, if any, is written.
     */
    int finish();

  private:
    struct Gate
    {
        std::string name;
        double value = 0.0;
        double floor = 0.0;
        double limit = 0.0;
        bool pass() const { return value >= floor && value <= limit; }
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
