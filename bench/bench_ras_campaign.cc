/**
 * @file
 * Fault-lifecycle campaign for the online RAS engine: every trial
 * boots a complete System over a mirrored bit-accurate rank, runs a
 * persistent workload while a multi-phase fault stream (transient
 * flips -> intermittent victim-chip flips -> progressive stuck-at
 * cells -> full chip kill) lands on the media, and checks that the
 * patrol scrubber + health ledger detect the kill and migrate the
 * rank to degraded mode live — no silent data corruption, no lost
 * durable write, failover engaged within a bounded number of demand
 * accesses, and transient-only trials never failing over.
 *
 * Knobs (strict parse, common/env.hh):
 *   NVCK_RAS_TRIALS     trials across all (tech x fault plan) cells
 *                       (default 6000)
 *   NVCK_RAS_PATROL     patrol cycle period in ns
 *   NVCK_RAS_THRESHOLD  chip-kill bucket threshold
 *   NVCK_RAS_DECAY      ledger decay interval in ns
 *   NVCK_CAMPAIGN_JSON  also write the shared report there as JSON
 *
 * Exit status is non-zero when any invariant was violated; `--seed N`
 * replays a CI failure verbatim and `--jobs N` never changes the
 * bytes.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/env.hh"
#include "sim/ras.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("RAS lifecycle campaign",
           "patrol scrub, health ledger, and live degraded failover");

    RasCampaignConfig cfg;
    if (const auto trials = envPositive("NVCK_RAS_TRIALS"))
        cfg.trials = *trials;
    cfg.trial.ras = RasConfig::fromEnv();

    return finishCampaign(campaignReport(
        "ras-lifecycle-campaign", opts.seedSet ? opts.seed : cfg.seed,
        rasCampaign(std::cout, opts, cfg)));
}
