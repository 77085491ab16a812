/**
 * @file
 * Randomized crash-point campaign on the bit-accurate rank models:
 * tears writes at every enumerated power-cut site (mid-XOR burst,
 * EUR coalesce window, row-close drain, multi-block persist), with
 * and without a concurrent chip kill, runs the post-crash recovery
 * pass, and checks that every block reads back as the old value, the
 * new value, or a reported UE — never silent garbage.
 *
 * Knobs (strict parse, common/env.hh):
 *   NVCK_CRASH_TRIALS  healthy-rank trials (default 10000)
 *   NVCK_CRASH_BLOCKS  rank capacity in 64B blocks (multiple of 32)
 *
 * Exit status is non-zero when the oracle was violated, so CI can run
 * this binary directly; `--seed N` replays a CI failure verbatim.
 * With NVCK_CAMPAIGN_JSON=<path>, the shared campaign report is also
 * written there as JSON.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "common/env.hh"
#include "sim/crash.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Crash campaign",
           "power-failure atomicity of the XOR/EUR write path");

    CrashCampaignConfig cfg;
    if (const auto trials = envPositive("NVCK_CRASH_TRIALS")) {
        cfg.trials = *trials;
        // Keep the degraded-mode share proportional to the main sweep.
        cfg.degradedTrials = std::max<std::uint64_t>(1, *trials / 10);
    }
    if (const auto blocks = envPositive("NVCK_CRASH_BLOCKS", 1u << 20)) {
        if (*blocks % 32 != 0) {
            std::fprintf(stderr,
                         "nvck: $NVCK_CRASH_BLOCKS: expected a multiple"
                         " of the VLEW span (32), got %llu\n",
                         static_cast<unsigned long long>(*blocks));
            return 2;
        }
        cfg.rankBlocks = static_cast<unsigned>(*blocks);
    }

    return finishCampaign(campaignReport(
        "crash-campaign", opts.seedSet ? opts.seed : cfg.seed,
        crashCampaign(std::cout, opts, cfg)));
}
