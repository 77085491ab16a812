/**
 * @file
 * Figure 18: fraction of PM writes whose old memory value (OMV) is
 * served from the LLC rather than fetched from off-chip memory. The
 * paper reports a 98.6% average; misses arise when the non-inclusive
 * hierarchy no longer holds the block's pre-write value (the paper's
 * barnes discussion).
 *
 * Both the full-LLC table and the scaled-cache sensitivity section
 * run as independent ParallelSweep points; the scaled points carry
 * "@64KB" labels so `--filter` can target either section.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 18", "OMV served-from-LLC rate for PM writes");
    fig18OmvHitRate(std::cout, opts);
    return 0;
}
