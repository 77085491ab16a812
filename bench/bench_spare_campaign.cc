/**
 * @file
 * Hot-sparing campaign for the RAS engine: every trial boots a
 * complete System over a mirrored bit-accurate rank, kills a chip
 * under a live persistent workload, and drives one of four service
 * plans — no spare (degraded baseline), spare rebuild to full code
 * strength, spare lost mid-rebuild (degraded fallback), and full
 * repair with migrate-back to a replacement device — checking against
 * the persist oracle that no route loses a durable write, corrupts
 * data silently, or strands the rank short of its plan's end state.
 *
 * Knobs (strict parse, common/env.hh):
 *   NVCK_SPARE_TRIALS           trials across all (tech x plan) cells
 *                               (default 6000)
 *   NVCK_SPARE_REBUILD_BLOCKS   rebuild/migrate-back blocks per step
 *   NVCK_SPARE_REBUILD_INTERVAL step pacing in ns
 *   NVCK_RAS_PATROL             patrol cycle period in ns
 *   NVCK_RAS_THRESHOLD          chip-kill bucket threshold
 *   NVCK_RAS_PATROL_ORDER       wear | addr patrol ordering
 *   NVCK_CAMPAIGN_JSON          also write the shared report as JSON
 *
 * Exit status is non-zero when any invariant was violated; `--seed N`
 * replays a CI failure verbatim and `--jobs N` never changes the
 * bytes.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/env.hh"
#include "sim/spare.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Hot-sparing campaign",
           "spare rebuild, degraded fallback, and repair/migrate-back");

    SpareCampaignConfig cfg;
    if (const auto trials = envPositive("NVCK_SPARE_TRIALS"))
        cfg.trials = *trials;
    cfg.trial.ras = RasConfig::fromEnv();

    return finishCampaign(campaignReport(
        "hot-sparing-campaign", opts.seedSet ? opts.seed : cfg.seed,
        spareCampaign(std::cout, opts, cfg)));
}
