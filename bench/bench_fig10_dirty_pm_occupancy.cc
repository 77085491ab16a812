/**
 * @file
 * Figure 10: fraction of cache-hierarchy lines (4MB LLC + four 64KB
 * L1s) occupied by dirty persistent-memory blocks. The paper's
 * observation — dirty PM blocks occupy only a small fraction (4% on
 * average) because persistent-memory applications clean aggressively —
 * is what makes OMV preservation in the LLC cheap.
 *
 * Workloads (full-size and scaled-cache sections) run as independent
 * ParallelSweep points; scaled points carry "@256KB" labels.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 10",
           "dirty-PM fraction of cache hierarchy capacity");
    fig10DirtyPmOccupancy(std::cout, opts);
    return 0;
}
