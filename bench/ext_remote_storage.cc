/**
 * @file
 * Extension bench: the disaggregated remote chunk tier (§VI-D "add
 * remote storage support" taken to its conclusion).
 *
 * A tenant namespace of 4 chunks runs a mixed 4K workload on a card
 * with 2 local P4510s plus 2 storage nodes x 2 volumes (6 back-end
 * slots through the same wide LBA map). Two measurements:
 *
 *   churn  tenant p99 while the tiering manager continuously
 *          spills/promotes one chunk at a time under a 200 MB/s
 *          migration budget — the transparency claim, gated
 *          (bounds below) on churn p99 over idle p99, on the tier
 *          moves done in the window (or the gate measured nothing)
 *          and on tenant I/O errors.
 *
 *   sweep  read IOPS/latency with K of the 4 chunks pinned remote
 *          (K = 0..4) — what a cold working set actually costs as
 *          its remote share grows.
 *
 * Every fio window is also gated on Little's law (bench::Report).
 * `--quick` shrinks both windows for the pre-PR smoke gate;
 * `--json=PATH` overrides where the record lands (default
 * BENCH_remote_tier.json in the current directory).
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/testbeds.hh"
#include "report.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

constexpr int kLocalSsds = 2;
constexpr int kRemoteNodes = 2;
constexpr int kVolumesPerNode = 2;
constexpr int kChunks = 4;
constexpr std::uint64_t kChunkBytes = sim::mib(8);
constexpr double kMigrationMbps = 200.0;

/** Gate bounds: churn p99 over idle p99, and the tier moves the churn
 *  window must complete (full / quick). */
constexpr double kP99Factor = 2.0;
constexpr int kMovesFloor = 4;
constexpr int kQuickMovesFloor = 2;

struct PhaseResult
{
    double iops = 0.0;
    double avgUs = 0.0;
    double p99Us = 0.0;
    std::uint64_t errors = 0;
};

/** Summarize @p r and add its numbers to @p row. */
PhaseResult
phaseOf(const workload::FioResult &r, bench::Fields &row)
{
    PhaseResult p;
    p.iops = r.iops;
    p.avgUs = r.avgLatencyUs();
    p.p99Us = static_cast<double>(r.latency.p99()) / 1e3;
    p.errors = r.errors;
    row.add("iops", p.iops, 1)
        .add("avgUs", p.avgUs, 2)
        .add("p99Us", p.p99Us, 2)
        .add("errors", p.errors);
    return p;
}

std::unique_ptr<harness::BmStoreTestbed>
makeBed()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = kLocalSsds;
    cfg.remoteNodes = kRemoteNodes;
    cfg.volumesPerNode = kVolumesPerNode;
    cfg.chunkBytes = kChunkBytes;
    auto bed = std::make_unique<harness::BmStoreTestbed>(cfg);
    bed->controller().migration().setBudget(kMigrationMbps);
    // Small copy segments bound the head-of-line blocking a tenant 4K
    // I/O can see behind an in-flight segment on the same SSD — the
    // knob that makes the transparency gate meetable at 200 MB/s.
    core::TieringConfig tcfg = bed->controller().tiering().policy();
    tcfg.tieringSegmentBytes = sim::kib(64);
    bed->controller().tiering().setPolicy(tcfg);
    return bed;
}

workload::FioJobSpec
makeSpec(workload::FioPattern pattern, bool quick, const char *name)
{
    workload::FioJobSpec spec;
    spec.pattern = pattern;
    spec.blockSize = 4096;
    spec.iodepth = 4;
    spec.numjobs = 1;
    spec.rampTime = quick ? sim::milliseconds(2) : sim::milliseconds(10);
    spec.runTime = quick ? sim::milliseconds(120) : sim::milliseconds(400);
    spec.caseName = name;
    return spec;
}

/** Spill chunks [0, k) and wait until the registry holds all of them. */
void
spillChunks(harness::BmStoreTestbed &bed, int k)
{
    int done = 0;
    for (int c = 0; c < k; ++c)
        bed.controller().tiering().spill(0, 1, static_cast<std::uint32_t>(c),
                                         -1, [&](bool ok) {
                                             if (ok)
                                                 ++done;
                                         });
    bed.runUntilTrue(
        [&] {
            return done == k && bed.controller().tiering().idle() &&
                   bed.controller().migration().idle();
        },
        sim::seconds(10));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report("ext_remote_storage", argc, argv,
                         "BENCH_remote_tier.json", /*has_quick=*/true);
    bool quick = report.quick();

    // ---- Phase 1: idle vs tier-churn tail latency -------------------
    auto bed = makeBed();
    host::NvmeDriver &drv =
        bed->attachTenant(0, kChunks * kChunkBytes);
    auto &tier = bed->controller().tiering();

    workload::FioJobSpec mixed =
        makeSpec(workload::FioPattern::RandRw, quick, "rand-rw-70-30");
    PhaseResult idle = phaseOf(report.runFio("idle", bed->sim(), drv, mixed),
                               report.row("phases").add("phase", "idle"));

    // Continuous spill -> promote cycle, one chunk at a time, driven
    // entirely from completion callbacks while fio runs on top.
    int moves = 0;
    int tierFailures = 0;
    bool stop = false;
    std::function<void(int)> cycle = [&](int chunk) {
        if (stop)
            return;
        tier.spill(0, 1, static_cast<std::uint32_t>(chunk), -1,
                   [&, chunk](bool ok) {
                       if (ok)
                           ++moves;
                       else
                           ++tierFailures;
                       if (stop)
                           return;
                       tier.promote(0, 1, static_cast<std::uint32_t>(chunk),
                                    [&, chunk](bool ok2) {
                                        if (ok2)
                                            ++moves;
                                        else
                                            ++tierFailures;
                                        cycle((chunk + 1) % kChunks);
                                    });
                   });
    };
    cycle(0);
    PhaseResult churn = phaseOf(report.runFio("churn", bed->sim(), drv, mixed),
                                report.row("phases").add("phase", "churn"));
    stop = true;
    bed->runUntilTrue(
        [&] {
            return tier.idle() && bed->controller().migration().idle();
        },
        sim::seconds(10));

    report.table("phases", "ext_remote_storage — tenant 4K rand-rw 70/30 "
                           "while chunks spill/promote at 200 MB/s");

    // ---- Phase 2: remote-hit-ratio sweep ----------------------------
    std::vector<int> ks =
        quick ? std::vector<int>{0, 2, 4} : std::vector<int>{0, 1, 2, 3, 4};
    std::uint64_t ioErrors = idle.errors + churn.errors;
    for (int k : ks) {
        auto kbed = makeBed();
        host::NvmeDriver &kdrv = kbed->attachTenant(0, kChunks * kChunkBytes);
        spillChunks(*kbed, k);
        workload::FioJobSpec rd =
            makeSpec(workload::FioPattern::RandRead, quick, "rand-r-sweep");
        PhaseResult p = phaseOf(
            report.runFio("remote" + std::to_string(k), kbed->sim(), kdrv, rd),
            report.row("sweep")
                .add("spilledChunks", k)
                .add("remoteShare", static_cast<double>(k) / kChunks, 2));
        ioErrors += p.errors;
    }
    report.table("sweep", "ext_remote_storage — 4K random read vs remote "
                          "share of the working set");

    report.values()
        .add("localSsds", kLocalSsds)
        .add("remoteNodes", kRemoteNodes)
        .add("volumesPerNode", kVolumesPerNode)
        .add("tierFailures", tierFailures);
    report.limit("p99Churn", idle.p99Us > 0 ? churn.p99Us / idle.p99Us : 0.0,
                 kP99Factor);
    report.floor("tierMoves", moves, quick ? kQuickMovesFloor : kMovesFloor);
    report.limit("ioErrors", static_cast<double>(ioErrors), 0.0);
    return report.finish();
}
