/**
 * @file
 * The randomized crash campaign end to end: the oracle must hold
 * (zero violations — no silent garbage, no rolled-back durable
 * writes) and the emitted table must be byte-identical for any worker
 * count at a fixed seed, the same determinism contract the figure
 * sweeps are locked to.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/threadpool.hh"
#include "sim/crash.hh"

namespace nvck {
namespace {

CrashCampaignConfig
smallCampaign()
{
    CrashCampaignConfig cfg;
    cfg.seed = 77;
    cfg.trials = 120;
    cfg.degradedTrials = 24;
    cfg.rankBlocks = 32;
    cfg.chunkTrials = 10;
    return cfg;
}

TEST(CrashCampaign, OracleHoldsAndTalliesAddUp)
{
    std::ostringstream os;
    SweepOptions opts;
    ThreadPool pool(2);
    opts.pool = &pool;
    const CrashCampaignConfig cfg = smallCampaign();
    const CrashCampaignTotals totals = crashCampaign(os, opts, cfg);

    EXPECT_EQ(totals.violations(), 0u);
    const CrashTally sum = totals.total();
    EXPECT_EQ(sum.trials, cfg.trials + cfg.degradedTrials);
    // Every trial's torn block resolved exactly one way.
    EXPECT_EQ(sum.tornOld + sum.tornNew + sum.tornUe, sum.trials);
    for (unsigned p = 0; p < numCrashPoints; ++p)
        EXPECT_EQ(totals.row(crashPointName(static_cast<CrashPoint>(p)))
                      .trials,
                  cfg.trials / numCrashPoints)
            << crashPointName(static_cast<CrashPoint>(p));
    EXPECT_NE(os.str().find("crash point"), std::string::npos);
    // The verdict block moved to the shared bench-side reporter
    // (bench_common.hh); the campaign itself emits only the table.
    EXPECT_EQ(os.str().find("Oracle held"), std::string::npos);
}

TEST(CrashCampaign, OutputIsByteIdenticalAcrossWorkerCounts)
{
    const CrashCampaignConfig cfg = smallCampaign();
    std::string outputs[2];
    const unsigned workers[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        std::ostringstream os;
        SweepOptions opts;
        ThreadPool pool(workers[i]);
        opts.pool = &pool;
        crashCampaign(os, opts, cfg);
        outputs[i] = os.str();
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(CrashCampaign, EveryTornShapeSettlesAtomically)
{
    // Drive the injector directly at each enumerated site so a single
    // failing shape is attributable without rerunning the campaign.
    Rng rng(11);
    PmRank rank(32);
    rank.initialize(rng);
    CrashInjector injector(rank);
    CrashTrialOptions topts;
    for (unsigned p = 0; p < numCrashPoints; ++p) {
        CrashTally tally;
        for (int t = 0; t < 40; ++t)
            tally += injector.runTrial(static_cast<CrashPoint>(p), rng,
                                       topts);
        EXPECT_EQ(tally.violations, 0u)
            << crashPointName(static_cast<CrashPoint>(p));
        EXPECT_EQ(tally.tornOld + tally.tornNew + tally.tornUe,
                  tally.trials);
    }
}

} // namespace
} // namespace nvck
