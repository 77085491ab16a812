/**
 * @file
 * Wear-leveling study (Section V-E): a pathologically hot block hammers
 * one frame; start-gap migration spreads the writes across all frames
 * at a small migration-write cost. Sweeps the gap-movement interval
 * (psi) to show the level/overhead trade-off, and shows the write-
 * verify wear-out detector catching a worn cell.
 *
 * Each gap interval is one long-trial ParallelSweep point (a full
 * hot-write hammer campaign), so the sweep saturates every core.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Section V-E", "start-gap wear leveling on the protected rank");
    wearLevelingCampaign(std::cout, opts);
    return 0;
}
