/**
 * @file
 * Ablation study of the proposal's design choices (DESIGN.md index):
 *
 *  1. OMV caching in the LLC (Section V-D): turning it off forces an
 *     off-chip old-data fetch before every PM write.
 *  2. EUR coalescing (Section V-D): turning it off charges a code-bit
 *     write per data write (C = 1) in the iso-endurance inflation.
 *  3. The naive VLEW deployment (Section IV / Fig 5) with both
 *     optimizations absent and every errored read fetching the VLEW.
 *  4. Degraded-mode VLEW reconfiguration after chip retirement
 *     (Section V-E): correction fetch cost drops from ~36 to ~7 blocks.
 *
 * Each workload is one ParallelSweep point running its five system
 * configurations; the five runs inside one point stay sequential
 * because the ablations reuse the full proposal's measured C factor.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Ablation", "what each optimization of the proposal buys");
    ablationDesign(std::cout, opts);
    return 0;
}
