/**
 * @file
 * Figure 17: proposal performance normalized to the bit-error-only
 * baseline under PCM latencies (tRCD 250ns, tWR 600ns). The paper
 * reports a 2.3% average overhead with hashmap worst at ~14% — the
 * longer baseline write latency magnifies the proposal's iso-endurance
 * write inflation.
 *
 * Workloads run as independent ParallelSweep points (NVCK_JOBS=1 opts
 * out); results print in submission order so the table matches the
 * serial run byte for byte, and tests/sim/test_bench_golden.cc locks
 * it. The baseline/proposal pair inside one point stays sequential
 * (pass 2 needs pass 1's C factor).
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 17",
           "performance normalized to baseline, PCM latencies");
    fig17PerfPcm(std::cout, opts);
    return 0;
}
