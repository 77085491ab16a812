/**
 * @file
 * Figure 14: workload characterization — breakdown of off-chip memory
 * accesses into persistent-memory reads/writes and DRAM reads/writes.
 * All benchmarks significantly exercise persistent memory.
 *
 * Workloads run as independent ParallelSweep points (NVCK_JOBS
 * controls the worker count; `--points`/`--filter` re-run a subset
 * with unchanged streams). The table is byte-identical for any worker
 * count and regression-locked by tests/sim/test_bench_golden.cc.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 14", "off-chip memory access breakdown");
    fig14AccessBreakdown(std::cout, opts);
    return 0;
}
