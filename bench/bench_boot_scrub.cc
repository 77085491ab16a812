/**
 * @file
 * Section V-B: boot-time error correction. Exercises the bit-accurate
 * rank model end to end — inject the week-to-year RBER, scrub, verify
 * every stored bit — and reproduces the scrub-time estimate (<1.5
 * minutes per terabyte channel).
 *
 * The three scenarios are independent ParallelSweep points, each
 * seeding its own rank from a per-point Rng substream, so the
 * campaign runs on every core and stays byte-identical for any
 * NVCK_JOBS.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Section V-B", "boot-time scrub on the bit-accurate rank");
    bootScrubCampaign(std::cout, opts);
    return 0;
}
