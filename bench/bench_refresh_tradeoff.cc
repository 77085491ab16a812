/**
 * @file
 * Refresh-policy trade study (Section IV discussion): the refresh
 * interval sets the runtime RBER, which sets both the VLEW-fallback
 * bandwidth (too-seldom refresh) and the scrub-traffic bandwidth of
 * the refresh itself (too-frequent refresh — the paper notes that
 * refreshing once per second costs ~1000% of bus bandwidth for even a
 * modest channel). The sweep shows why hourly-scale refresh with the
 * 2-correction threshold is the operating point.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Refresh trade-off (Section IV)",
           "refresh interval vs RBER vs bandwidth");
    refreshTradeoff(std::cout, opts);
    return 0;
}
