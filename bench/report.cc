#include "report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "harness/runner.hh"

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

} // namespace

Fields &
Fields::add(const std::string &key, double v, int decimals)
{
    return addJson(key, fixed(v, decimals));
}

Fields &
Fields::addJson(const std::string &key, const std::string &json)
{
    _json += (_json.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
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
    bool pass = true;
    std::printf("\n%s gates:\n", _bench.c_str());
    for (const Gate &g : _gates) {
        std::printf("  %-26s %16.4f %s %-14.4f %s\n", g.name.c_str(),
                    g.value, g.floor ? ">=" : "<=", g.bound,
                    g.pass() ? "pass" : "FAIL");
        pass = pass && g.pass();
    }
    std::FILE *f = std::fopen(_path.c_str(), "w");
    bool written = f && std::fputs(json(pass).c_str(), f) >= 0;
    written = f && std::fclose(f) == 0 && written;
    if (!written)
        std::fprintf(stderr, "%s: cannot write %s\n", _bench.c_str(),
                     _path.c_str());
    else if (!pass)
        std::fprintf(stderr, "%s: GATE FAILURE (record in %s)\n",
                     _bench.c_str(), _path.c_str());
    else
        std::printf("%s: all gates passed (record in %s)\n", _bench.c_str(),
                    _path.c_str());
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
        gates += (gates.empty() ? "\n    \"" : ",\n    \"") + g.name +
                 "\": {\"value\": " + fixed(g.value, 4) +
                 (g.floor ? ", \"floor\": " : ", \"limit\": ") +
                 fixed(g.bound, 4) +
                 ", \"pass\": " + (g.pass() ? "true" : "false") + "}";
    }
    return "{\n  \"bench\": \"" + _bench + "\",\n  \"provenance\": " +
           provenance.json() + ",\n  \"values\": " + _values.json() +
           ",\n  \"rows\": {" + rows + "\n  },\n  \"gates\": {" + gates +
           "\n  },\n  \"pass\": " + (pass ? "true" : "false") + "\n}\n";
}

} // namespace bms::bench
