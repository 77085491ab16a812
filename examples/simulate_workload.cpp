/**
 * @file
 * Full-system simulation driver: runs any of the sixteen calibrated
 * benchmarks on the timing simulator under a chosen NVRAM technology
 * and prints a performance report comparing the bit-error-only baseline
 * with the paper's proposal (two-pass protocol: characterize C, then
 * evaluate with the iso-endurance write inflation).
 *
 *   usage: simulate_workload [workload] [reram|pcm]
 */

#include <cstdio>
#include <optional>
#include <string>

#include "common/env.hh"
#include "sim/experiment.hh"
#include "workload/profiles.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "btree";
    const auto tech_idx =
        argc > 2 ? parseChoice(argv[2], {"reram", "pcm"})
                 : std::optional<std::size_t>(1);
    if (argc > 3 || !tech_idx) {
        std::fprintf(stderr, "usage: %s [workload] [reram|pcm]\n",
                     argv[0]);
        return 2;
    }
    const PmTech tech = *tech_idx == 0 ? PmTech::Reram : PmTech::Pcm;

    bool known = false;
    for (const auto &name : allBenchmarkNames())
        known = known || name == workload;
    if (!known) {
        std::fprintf(stderr, "unknown workload '%s'; available:",
                     workload.c_str());
        for (const auto &name : allBenchmarkNames())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    RunControl rc;
    rc.warmup = nsToTicks(50000);
    rc.measure = nsToTicks(150000);

    std::printf("simulating %s on %s latencies "
                "(warmup %.0fus, measure %.0fus)...\n\n",
                workload.c_str(), pmTechName(tech).c_str(),
                ticksToNs(rc.warmup) / 1000.0,
                ticksToNs(rc.measure) / 1000.0);

    const auto base = runBaseline(tech, workload, 1, rc);
    const auto prop = runProposal(tech, workload, 1, rc);
    const char *metric =
        findProfile(workload).flops ? "MFLOPS" : "IPC";

    std::printf("%-28s %12s %12s\n", "", "baseline", "proposal");
    std::printf("%-28s %12.4f %12.4f\n", metric, base.perf, prop.perf);
    std::printf("%-28s %12s %12.4f\n", "normalized", "1.0000",
                prop.perf / base.perf);
    std::printf("%-28s %12.1f %12.1f\n", "avg read latency (ns)",
                base.avgReadLatencyNs, prop.avgReadLatencyNs);
    std::printf("%-28s %12.2f %12.2f\n", "row-buffer hit rate (%)",
                100.0 * base.rowHitRate, 100.0 * prop.rowHitRate);
    std::printf("%-28s %12llu %12llu\n", "PM reads",
                static_cast<unsigned long long>(base.pmReads),
                static_cast<unsigned long long>(prop.pmReads));
    std::printf("%-28s %12llu %12llu\n", "PM writes",
                static_cast<unsigned long long>(base.pmWrites),
                static_cast<unsigned long long>(prop.pmWrites));
    std::printf("%-28s %12s %12.3f\n", "C factor (Fig 15)", "-",
                prop.cFactor);
    std::printf("%-28s %12s %12.1f\n", "OMV hit rate (%) (Fig 18)",
                "-", 100.0 * prop.omvHitRate);
    std::printf("%-28s %12s %12llu\n", "VLEW fetches", "-",
                static_cast<unsigned long long>(prop.vlewFetches));
    std::printf("%-28s %12s %12llu\n", "old-data fetches", "-",
                static_cast<unsigned long long>(prop.oldDataFetches));
    std::printf("%-28s %12.2f %12.2f\n", "dirty-PM occupancy (%)",
                100.0 * base.dirtyPmFraction,
                100.0 * prop.dirtyPmFraction);
    return 0;
}
