/**
 * @file
 * Experiment runners and the common flags shared by bench binaries.
 */

#ifndef BMS_HARNESS_RUNNER_HH
#define BMS_HARNESS_RUNNER_HH

#include <vector>

#include "host/block.hh"
#include "sim/simulator.hh"
#include "workload/fio.hh"

namespace bms::harness {

/**
 * Apply the flags every bench and the fuzz driver share:
 *   --paranoid   enable structure-wide invariant sweeps on hot paths
 *                (sim::Check::paranoid(); also BMS_PARANOID=1)
 *   --log=LEVEL  raise the log level (warn|info|debug|trace); any
 *                other level exits 2
 * Other arguments are left to the caller, which rejects the ones it
 * does not know.
 */
void applyCommonFlags(int argc, char **argv);

/** Run one fio spec to completion on @p dev; returns its results. */
workload::FioResult runFio(sim::Simulator &sim, host::BlockDeviceIf &dev,
                           const workload::FioJobSpec &spec);

/**
 * Run the same spec concurrently on many devices (multi-VM
 * experiments); returns per-device results in input order.
 */
std::vector<workload::FioResult>
runFioMany(sim::Simulator &sim,
           const std::vector<host::BlockDeviceIf *> &devs,
           const workload::FioJobSpec &spec);

} // namespace bms::harness

#endif // BMS_HARNESS_RUNNER_HH
