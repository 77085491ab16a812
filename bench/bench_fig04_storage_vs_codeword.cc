/**
 * @file
 * Figure 4: total storage cost (VLEW code bits + parity chip) versus
 * codeword length at the 1e-3 boot-time RBER. Longer words cost less;
 * 256B of data per word reaches the paper's 27% sweet spot.
 *
 * Each codeword length is one analytic ParallelSweep point (the
 * vlewScheme strength solver).
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 4", "storage cost vs VLEW codeword length @ RBER 1e-3");
    fig04StorageVsCodeword(std::cout, opts);
    return 0;
}
