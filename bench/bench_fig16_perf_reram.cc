/**
 * @file
 * Figure 16: proposal performance normalized to the bit-error-only
 * baseline under ReRAM latencies (tRCD 120ns, tWR 300ns). The paper
 * reports a 1.4% average overhead; IPC for WHISPER workloads, FLOPS
 * for SPLASH.
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
    banner("Figure 16",
           "performance normalized to baseline, ReRAM latencies");
    fig16PerfReram(std::cout, opts);
    return 0;
}
