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
            else {
                std::fprintf(stderr,
                             "unknown log level '%s'; accepted: "
                             "warn info debug trace\n",
                             lvl);
                std::exit(2);
            }
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

} // namespace bms::harness
