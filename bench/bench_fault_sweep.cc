/**
 * @file
 * Fault sweep on the bit-accurate rank: how the runtime read paths
 * (clean / RS-accepted / VLEW fallback / failure) redistribute as the
 * RBER climbs from healthy runtime rates through the boot target and
 * beyond — the end-to-end demonstration that the decoupled design
 * degrades gracefully and never corrupts silently.
 *
 * Each RBER point is an independent ParallelSweep work item
 * (NVCK_JOBS controls the worker count; NVCK_JOBS=1 runs serially).
 * Every point seeds its own rank from its Rng substream, so the table
 * is byte-identical for any worker count.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Fault sweep",
           "read-path distribution vs RBER on the bit-accurate rank");
    faultSweep(std::cout, opts);
    return 0;
}
