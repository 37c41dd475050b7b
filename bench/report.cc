#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "harness/runner.hh"
#include "sim/check.hh"

namespace bms::bench {

namespace {

/** Largest relative deviation from Little's law a fio window may show;
 *  the worst window of every gated bench measures under 0.2 %. */
constexpr double kLittlesLawLimit = 0.01;

std::string
fixed(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

using Cells = std::vector<std::string>;

/** Terminal columns of a UTF-8 string: one per code point. */
std::size_t
columns(const std::string &s)
{
    return static_cast<std::size_t>(std::count_if(
        s.begin(), s.end(), [](char c) { return (c & 0xC0) != 0x80; }));
}

/** Print @p rows under @p headers, each column as wide as its widest
 *  cell. */
void
printTable(const std::string &title, const Cells &headers,
           const std::vector<Cells> &rows)
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        width[c] = columns(headers[c]);
    for (const Cells &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], columns(row[c]));

    std::printf("\n== %s ==\n", title.c_str());
    auto line = [&] {
        for (std::size_t w : width)
            std::printf("+%s", std::string(w + 2, '-').c_str());
        std::printf("+\n");
    };
    auto cells = [&](const Cells &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("| %s%s ", row[c].c_str(),
                        std::string(width[c] - columns(row[c]), ' ').c_str());
        std::printf("|\n");
    };
    line();
    cells(headers);
    line();
    for (const Cells &row : rows)
        cells(row);
    line();
}

} // namespace

Fields &
Fields::add(const std::string &key, double v, int decimals)
{
    _fields.push_back(Field{key, fixed(v, decimals), false});
    return *this;
}

std::string
Fields::json() const
{
    std::string out;
    for (const Field &f : _fields)
        out += (out.empty() ? "\"" : ", \"") + f.key + "\": " +
               (f.quoted ? "\"" + f.text + "\"" : f.text);
    return "{" + out + "}";
}

Report::Report(std::string bench, int argc, char **argv,
               std::string default_json, bool has_quick)
    : _bench(std::move(bench)), _path(std::move(default_json)),
      _start(std::chrono::steady_clock::now())
{
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (has_quick && arg == "--quick") {
            _quick = true;
        } else if (arg.starts_with("--json=") && arg.size() > 7) {
            _path = arg.substr(7);
        } else if (arg != "--paranoid" && !arg.starts_with("--log=")) {
            std::fprintf(stderr,
                         "%s: unknown argument '%s'; accepted: %s"
                         "--json=PATH --paranoid --log=LEVEL\n",
                         _bench.c_str(), argv[i],
                         has_quick ? "--quick " : "");
            std::exit(2);
        }
    }
    harness::applyCommonFlags(argc, argv);
}

bool
Report::sanitized()
{
    return BMS_BUILD_SANITIZE[0] != '\0';
}

bool
Report::optimized()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

void
Report::table(const std::string &name, const std::string &title) const
{
    auto it = _rows.find(name);
    BMS_ASSERT(it != _rows.end(), "no row array ", name);
    auto keys = [](const Fields &fields) {
        Cells out;
        for (const Fields::Field &f : fields._fields)
            out.push_back(f.key);
        return out;
    };
    Cells headers = keys(it->second.front());
    std::vector<Cells> rows;
    for (const Fields &fields : it->second) {
        BMS_ASSERT(keys(fields) == headers, "a row of ", name,
                   " has other keys than its first");
        Cells &row = rows.emplace_back();
        for (const Fields::Field &f : fields._fields)
            row.push_back(f.text);
    }
    printTable(title, headers, rows);
}

void
Report::band(const std::string &gate, double value, double floor,
             double limit)
{
    _gates.push_back(Gate{gate, value, floor, limit});
}

workload::FioResult
Report::runFio(const std::string &gate, sim::Simulator &sim,
               host::BlockDeviceIf &dev, const workload::FioJobSpec &spec)
{
    workload::FioResult r = harness::runFio(sim, dev, spec);
    littlesLaw(gate, {&r, 1}, spec);
    return r;
}

std::vector<workload::FioResult>
Report::runFioMany(const std::string &gate, sim::Simulator &sim,
                   const std::vector<host::BlockDeviceIf *> &devs,
                   const workload::FioJobSpec &spec)
{
    auto results = harness::runFioMany(sim, devs, spec);
    littlesLaw(gate, results, spec);
    return results;
}

void
Report::littlesLaw(const std::string &gate,
                   std::span<const workload::FioResult> results,
                   const workload::FioJobSpec &spec)
{
    double inFlight = 0.0;
    for (const workload::FioResult &r : results)
        inFlight += r.iops * r.latency.mean() / 1e9;
    double kept = static_cast<double>(results.size()) * spec.numjobs *
                  spec.iodepth;
    limit("littlesLaw." + gate, std::fabs(inFlight / kept - 1.0),
          kLittlesLawLimit);
}

int
Report::finish()
{
    if (!_values._fields.empty()) {
        std::vector<Cells> rows;
        for (const Fields::Field &f : _values._fields)
            rows.push_back({f.key, f.text});
        printTable(_bench + " values", {"field", "value"}, rows);
    }
    bool pass = true;
    if (!_gates.empty())
        std::printf("\n%s gates:\n", _bench.c_str());
    // The name column fits the longest gate name, so the value, bounds
    // and verdict columns line up on every row.
    int width = 0;
    for (const Gate &g : _gates)
        width = std::max(width, static_cast<int>(g.name.size()));
    for (const Gate &g : _gates) {
        std::string bound =
            !std::isfinite(g.limit)   ? ">= " + fixed(g.floor, 4)
            : !std::isfinite(g.floor) ? "<= " + fixed(g.limit, 4)
                                      : "in [" + fixed(g.floor, 4) + ", " +
                                            fixed(g.limit, 4) + "]";
        std::printf("  %-*s %16.4f %-17s %s\n", width, g.name.c_str(),
                    g.value, bound.c_str(), g.pass() ? "pass" : "FAIL");
        pass = pass && g.pass();
    }
    bool written = _path.empty();
    if (!written) {
        std::FILE *f = std::fopen(_path.c_str(), "w");
        written = f && std::fputs(json(pass).c_str(), f) >= 0;
        written = f && std::fclose(f) == 0 && written;
    }
    if (!written)
        std::fprintf(stderr, "%s: cannot write %s\n", _bench.c_str(),
                     _path.c_str());
    else if (!pass)
        std::fprintf(stderr, "%s: GATE FAILURE\n", _bench.c_str());
    else if (!_gates.empty())
        std::printf("%s: all gates passed\n", _bench.c_str());
    if (written && !_path.empty())
        std::printf("%s: record in %s\n", _bench.c_str(), _path.c_str());
    return written && pass ? 0 : 1;
}

std::string
Report::json(bool pass) const
{
    // BMS_BUILD_*: provenance captured when CMake configured this tree.
    Fields provenance;
    provenance.add("gitSha", BMS_BUILD_GIT_SHA)
        .add("buildType", BMS_BUILD_TYPE)
        .add("compiler", BMS_BUILD_COMPILER)
        .add("sanitize", BMS_BUILD_SANITIZE)
        .add("nproc", std::thread::hardware_concurrency())
        .add("mode", _quick ? "quick" : "full")
        .add("wallSeconds", wallSeconds(), 1);
    // One row and one gate per line, so a replay check can grep them.
    std::string rows, gates;
    for (const auto &[name, array] : _rows) {
        rows += (rows.empty() ? "\n    \"" : ",\n    \"") + name + "\": [";
        for (std::size_t r = 0; r < array.size(); ++r)
            rows += (r ? ",\n      " : "\n      ") + array[r].json();
        rows += "\n    ]";
    }
    for (const Gate &g : _gates) {
        std::string bound;
        if (std::isfinite(g.floor))
            bound += ", \"floor\": " + fixed(g.floor, 4);
        if (std::isfinite(g.limit))
            bound += ", \"limit\": " + fixed(g.limit, 4);
        gates += (gates.empty() ? "\n    \"" : ",\n    \"") + g.name +
                 "\": {\"value\": " + fixed(g.value, 4) + bound +
                 ", \"pass\": " + (g.pass() ? "true" : "false") + "}";
    }
    return "{\n  \"bench\": \"" + _bench + "\",\n  \"provenance\": " +
           provenance.json() + ",\n  \"values\": " + _values.json() +
           ",\n  \"rows\": {" + rows + "\n  },\n  \"gates\": {" + gates +
           "\n  },\n  \"pass\": " + (pass ? "true" : "false") + "\n}\n";
}

} // namespace bms::bench
