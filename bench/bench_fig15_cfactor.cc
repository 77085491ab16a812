/**
 * @file
 * Figure 15: the C factor — the ratio of coalesced VLEW code-bit
 * writes (EUR drains at row close) to off-chip PM write requests. C
 * sets the iso-endurance write-latency inflation 1 + 33/8 * C used in
 * the evaluation.
 *
 * Workloads run as independent ParallelSweep points; see sweeps.hh
 * for the determinism contract and tests/sim/test_bench_golden.cc for
 * the byte-identical regression lock.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 15",
           "C factor: VLEW code-bit writes per PM write request");
    fig15Cfactor(std::cout, opts);
    return 0;
}
