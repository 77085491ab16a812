/**
 * @file
 * Figures 8/9 and Section V-C: the runtime correction procedure on the
 * bit-accurate rank — opportunistic per-block RS with the 2-correction
 * acceptance threshold, VLEW fallback for denser patterns, and RS
 * erasure recovery when a chip dies at runtime. Measures the fallback
 * rate against the analytical ~0.018-0.02%.
 *
 * Each 256-block accumulation shard and the chip-failure check is one
 * sweep point with its own Rng substream; exits 1 when the chip-failure
 * self-check loses a block.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figures 8/9 + Section V-C",
           "runtime correction paths on the bit-accurate rank");
    return runtimeCorrection(std::cout, opts) ? 0 : 1;
}
