#include "harness/runner.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "sim/check.hh"
#include "sim/log.hh"

namespace bms::harness {

void
applyCommonFlags(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--paranoid") == 0) {
            sim::Check::setParanoid(true);
        } else if (std::strncmp(argv[i], "--log=", 6) == 0) {
            const char *lvl = argv[i] + 6;
            if (std::strcmp(lvl, "warn") == 0)
                sim::Log::setLevel(sim::LogLevel::Warn);
            else if (std::strcmp(lvl, "info") == 0)
                sim::Log::setLevel(sim::LogLevel::Info);
            else if (std::strcmp(lvl, "debug") == 0)
                sim::Log::setLevel(sim::LogLevel::Debug);
            else if (std::strcmp(lvl, "trace") == 0)
                sim::Log::setLevel(sim::LogLevel::Trace);
            else
                std::fprintf(stderr, "unknown log level '%s'\n", lvl);
        }
    }
}

workload::FioResult
runFio(sim::Simulator &sim, host::BlockDeviceIf &dev,
       const workload::FioJobSpec &spec)
{
    auto *runner =
        sim.make<workload::FioRunner>(sim, "fio." + spec.caseName, dev,
                                      spec);
    runner->start();
    while (!runner->finished()) {
        BMS_ASSERT(!sim.queue().empty(),
                   "fio run stalled: no events left");
        sim.runUntil(sim.now() + sim::milliseconds(10));
    }
    return runner->result();
}

std::vector<workload::FioResult>
runFioMany(sim::Simulator &sim,
           const std::vector<host::BlockDeviceIf *> &devs,
           const workload::FioJobSpec &spec)
{
    std::vector<workload::FioRunner *> runners;
    runners.reserve(devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        runners.push_back(sim.make<workload::FioRunner>(
            sim, "fio" + std::to_string(i) + "." + spec.caseName,
            *devs[i], spec));
    }
    for (auto *r : runners)
        r->start();
    while (!std::all_of(runners.begin(), runners.end(),
                        [](auto *r) { return r->finished(); })) {
        BMS_ASSERT(!sim.queue().empty(),
                   "fio run stalled: no events left");
        sim.runUntil(sim.now() + sim::milliseconds(10));
    }
    std::vector<workload::FioResult> out;
    out.reserve(runners.size());
    for (auto *r : runners)
        out.push_back(r->result());
    return out;
}

Table::Table(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    BMS_ASSERT_EQ(cells.size(), _headers.size(),
                  "table row does not match header");
    _rows.push_back(std::move(cells));
}

std::string
Table::fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
Table::fmtInt(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Table::printCsv(const std::string &title) const
{
    std::printf("# %s\n", title.c_str());
    auto row_out = [](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            std::printf("%s%s", c ? "," : "", cells[c].c_str());
        std::printf("\n");
    };
    row_out(_headers);
    for (const auto &row : _rows)
        row_out(row);
}

void
Table::print(const std::string &title) const
{
    if (const char *csv = std::getenv("BMS_TABLE_CSV");
        csv && csv[0] == '1') {
        printCsv(title);
        return;
    }
    std::vector<std::size_t> width(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        width[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::printf("\n== %s ==\n", title.c_str());
    auto line = [&] {
        for (std::size_t c = 0; c < width.size(); ++c) {
            std::printf("+");
            for (std::size_t i = 0; i < width[c] + 2; ++i)
                std::printf("-");
        }
        std::printf("+\n");
    };
    auto row_out = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            std::printf("| %-*s ", static_cast<int>(width[c]),
                        cells[c].c_str());
        std::printf("|\n");
    };
    line();
    row_out(_headers);
    line();
    for (const auto &row : _rows)
        row_out(row);
    line();
}

} // namespace bms::harness
