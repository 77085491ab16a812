/**
 * @file
 * End-to-end power-failure campaign through the full timing path:
 * every trial boots a complete System (cores -> caches -> controller
 * -> EUR) over a mirrored bit-accurate rank, runs a persistent
 * workload, cuts power via System::powerFail() — at a random tick or
 * at an armed CrashHooks site (mid data burst, row-close start, mid
 * EUR drain), optionally killing a chip at the same instant — then
 * runs PmRank::crashRecovery() and checks every block against the
 * persist-order oracle: settled writes read back exactly, pending
 * writes resolve to old/any-acked/new or a reported UE, and nothing
 * is ever silent garbage.
 *
 * Knobs (strict parse, common/env.hh):
 *   NVCK_SYSCRASH_TRIALS  trials across all (tech x site) cells
 *                         (default 6000)
 *   NVCK_SYSCRASH_BLOCKS  mirrored rank capacity in 64B blocks
 *                         (multiple of 32, default 1024)
 *   NVCK_CAMPAIGN_JSON    also write the shared report there as JSON
 *
 * Exit status is non-zero when the oracle was violated; `--seed N`
 * replays a CI failure verbatim and `--jobs N` never changes the
 * bytes.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "common/env.hh"
#include "sim/syscrash.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("System crash campaign",
           "whole-system power-failure atomicity via powerFail()");

    SysCrashCampaignConfig cfg;
    if (const auto trials = envPositive("NVCK_SYSCRASH_TRIALS"))
        cfg.trials = *trials;
    if (const auto blocks =
            envPositive("NVCK_SYSCRASH_BLOCKS", 1u << 20)) {
        if (*blocks % 32 != 0) {
            std::fprintf(stderr,
                         "nvck: $NVCK_SYSCRASH_BLOCKS: expected a"
                         " multiple of the VLEW span (32), got %llu\n",
                         static_cast<unsigned long long>(*blocks));
            return 2;
        }
        cfg.trial.rankBlocks = static_cast<unsigned>(*blocks);
    }

    return finishCampaign(campaignReport(
        "system-crash-campaign", opts.seedSet ? opts.seed : cfg.seed,
        systemCrashCampaign(std::cout, opts, cfg)));
}
