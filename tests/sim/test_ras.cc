/**
 * @file
 * Online RAS engine: leaky-bucket ledger arithmetic, deterministic
 * threshold crossings, the live failover edge cases (kill with a
 * non-empty EUR, kill mid-patrol, double kill), bit-identity of the
 * incremental migration against the offline DegradedRank::takeOver,
 * and the lifecycle campaign's oracle + worker-count determinism.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>

#include "common/threadpool.hh"
#include "sim/ras.hh"

namespace nvck {
namespace {

// HealthLedger --------------------------------------------------------

TEST(RasLedger, IntegerDecayIsExact)
{
    RasConfig cfg;
    cfg.decayInterval = 100;
    cfg.decayStep = 4;
    HealthLedger ledger(2, 2, cfg);

    EXPECT_EQ(ledger.recordChip(0, 10, 0), 10u);
    EXPECT_EQ(ledger.chipLevel(0, 99), 10u);  // partial interval
    EXPECT_EQ(ledger.chipLevel(0, 100), 6u);  // one whole interval
    EXPECT_EQ(ledger.chipLevel(0, 250), 2u);  // two whole intervals
    EXPECT_EQ(ledger.chipLevel(0, 300), 0u);  // fully drained
    EXPECT_EQ(ledger.chipLevel(0, 1u << 30), 0u); // never wraps

    // Recording re-anchors the leak clock to whole intervals only.
    EXPECT_EQ(ledger.recordChip(0, 5, 150), 11u); // 10 - 4 + 5
    EXPECT_EQ(ledger.chipLevel(0, 199), 11u);
    EXPECT_EQ(ledger.chipLevel(0, 200), 7u);

    // The untouched chip and the row buckets are independent.
    EXPECT_EQ(ledger.chipLevel(1, 500), 0u);
    EXPECT_EQ(ledger.recordRow(1, 9, 40), 9u);
    ledger.resetRow(1);
    EXPECT_EQ(ledger.rowLevel(1, 40), 0u);
}

TEST(RasLedger, ThresholdCrossingIsDeterministicAcrossSubstreams)
{
    RasConfig cfg;
    cfg.decayInterval = 50;
    cfg.decayStep = 1;
    const std::uint64_t threshold = 30;

    // The same substream must produce the same event history and
    // therefore the same crossing step, independent of the sibling
    // streams drawn in between (the parallel-campaign contract).
    const Rng base(2018);
    int crossings[2] = {-1, -1};
    for (int run = 0; run < 2; ++run) {
        Rng sibling = base.substream(run == 0 ? 3 : 9);
        (void)sibling.next();
        Rng rng = base.substream(7);
        HealthLedger ledger(9, 4, cfg);
        for (int step = 0; step < 400; ++step) {
            const Tick now = static_cast<Tick>(step) * 10;
            const unsigned chip = static_cast<unsigned>(rng.below(9));
            const std::uint64_t w = 1 + rng.below(3);
            if (ledger.recordChip(chip, w, now) >= threshold) {
                crossings[run] = step;
                break;
            }
        }
    }
    EXPECT_GE(crossings[0], 0);
    EXPECT_EQ(crossings[0], crossings[1]);
}

// Online migration vs offline takeOver -------------------------------

TEST(RasFailover, MatchesOfflineTakeOverBitIdentical)
{
    Rng rng(55);
    PmRank rank(128);
    rank.initialize(rng);
    // Correctable wear so the migration reads exercise correction.
    for (int i = 0; i < 12; ++i) {
        rank.corruptByte(static_cast<unsigned>(rng.below(rank.chips())),
                         static_cast<unsigned>(rng.below(rank.blocks())),
                         static_cast<unsigned>(rng.below(chipBeatBytes)),
                         static_cast<std::uint8_t>(1u << rng.below(8)));
    }
    rank.failChip(3, rng);

    const DegradedSnapshot offline =
        DegradedRank::takeOver(rank, 3).snapshot();

    OnlineFailover online(rank, 3, 2);
    unsigned steps = 0;
    while (!online.done()) {
        // Deliberately not span-aligned: partial spans must compose.
        EXPECT_GT(online.step(17), 0u);
        ++steps;
    }
    EXPECT_EQ(online.watermark(), rank.blocks());
    EXPECT_GE(steps, rank.blocks() / 17);
    EXPECT_EQ(online.poisonedBlocks(), 0u);

    const DegradedSnapshot live = online.degraded().snapshot();
    EXPECT_TRUE(live == offline);
}

// Live-system edge cases ----------------------------------------------

/** A booted System + mirrored rank, shaped like one campaign trial. */
struct LiveRig
{
    Rng rng;
    MirroredTrial trial;
    System &sys = trial.sys;
    PmRank &rank = trial.rank;
    PersistOracle &oracle = trial.oracle;
    RasMirror mirror;

    static MirroredTrialShape
    shapeOf(unsigned blocks)
    {
        MirroredTrialShape shape;
        shape.rankBlocks = blocks;
        return shape;
    }

    LiveRig(unsigned blocks, std::uint64_t seed,
            const RasConfig &ras = RasConfig{})
        : rng(seed), trial(shapeOf(blocks), rng),
          mirror(sys, rank, oracle, ras, 2, seed + 3)
    {
        mirror.engine().start();
        sys.start();
    }
};

TEST(RasFailover, KillWithPendingEurDrainsBeforeMigration)
{
    LiveRig rig(256, 9001);

    // Run until demand writes have coalesced code deltas in the EUR.
    Tick t = 0;
    while (t < nsToTicks(16000) &&
           rig.sys.memory().eurState().pendingTotal() == 0) {
        t += nsToTicks(50);
        rig.sys.runUntil(t);
    }
    ASSERT_GT(rig.sys.memory().eurState().pendingTotal(), 0u);

    // Cross the kill threshold mid-coalesce; failover must retire the
    // in-flight registers through the row-close path before migrating.
    rig.mirror.engine().noteChipErrors(3, 1000);
    rig.sys.runUntil(t + nsToTicks(12000));

    EXPECT_TRUE(rig.mirror.engaged());
    EXPECT_TRUE(rig.mirror.completed());
    EXPECT_EQ(rig.mirror.engine().state(), RasState::Degraded);
    EXPECT_EQ(rig.mirror.engine().killedChip(), 3u);
    EXPECT_GT(rig.mirror.engine().tally().drainedAtFailover, 0u);
    EXPECT_EQ(rig.mirror.engine().watermark(), rig.rank.blocks());

    RasTally tally;
    rig.mirror.finalCheck(tally);
    EXPECT_EQ(tally.sdc, 0u);
    EXPECT_EQ(tally.lostDurable, 0u);
    EXPECT_EQ(tally.ue, 0u);
}

TEST(RasFailover, KillDuringPatrolBurstDropsItsCompletion)
{
    LiveRig rig(256, 4242);

    // Catch a patrol burst with reads still in flight.
    Tick t = 0;
    while (t < nsToTicks(30000) &&
           rig.mirror.engine().patrolInFlight() == 0) {
        t += nsToTicks(5);
        rig.sys.runUntil(t);
    }
    ASSERT_GT(rig.mirror.engine().patrolInFlight(), 0u);

    rig.mirror.engine().noteChipErrors(1, 1000);
    rig.sys.runUntil(t + nsToTicks(12000));

    EXPECT_TRUE(rig.mirror.completed());
    // The in-flight burst's span now belongs to the failover path; its
    // completion must be dropped, not scrubbed against the dead layout.
    EXPECT_GE(rig.mirror.engine().stats().patrolDropped, 1u);

    RasTally tally;
    rig.mirror.finalCheck(tally);
    EXPECT_EQ(tally.sdc + tally.lostDurable + tally.ue, 0u);
}

TEST(RasFailover, DoubleKillReportsUnrecoverable)
{
    LiveRig rig(256, 777);
    rig.sys.runUntil(nsToTicks(500));
    rig.mirror.engine().noteChipErrors(2, 1000);
    rig.sys.runUntil(nsToTicks(14000));
    ASSERT_TRUE(rig.mirror.completed());

    // A second chip crossing after failover exceeds the RS budget:
    // the engine must report, not assert.
    rig.mirror.engine().noteChipErrors(6, 1000);
    EXPECT_EQ(rig.mirror.engine().state(), RasState::Unrecoverable);
    EXPECT_EQ(rig.mirror.engine().stats().doubleKills, 1u);
    EXPECT_TRUE(rig.mirror.unrecoverable());

    // Evidence for the already-dead chip stays ignored.
    rig.mirror.engine().noteChipErrors(2, 1000);
    EXPECT_EQ(rig.mirror.engine().stats().doubleKills, 1u);
}

// Evidence map --------------------------------------------------------

/**
 * A mirrored rank with no core started and no patrol cycle armed, and
 * a ledger that never leaks: the only evidence is what a targeted
 * patrol finds, at its exact weight.
 */
struct QuietRig
{
    Rng rng;
    MirroredTrial trial;
    RasMirror mirror;
    RasEngine &eng = mirror.engine();

    static RasConfig
    noDecay()
    {
        RasConfig ras;
        ras.decayStep = 0;
        return ras;
    }

    explicit QuietRig(std::uint64_t seed)
        : rng(seed), trial(LiveRig::shapeOf(256), rng),
          mirror(trial.sys, trial.rank, trial.oracle, noDecay(), 2,
                 seed + 3)
    {
    }

    /** Raise a row alarm on @p span and run its targeted patrol to
     *  completion. */
    void
    patrol(unsigned span)
    {
        const std::uint64_t scrubs = eng.tally().targetedScrubs;
        eng.noteRowErrors(span, RasEngine::rowThreshold);
        trial.sys.runUntil(trial.sys.now() + nsToTicks(4000));
        ASSERT_EQ(eng.tally().targetedScrubs, scrubs + 1);
        ASSERT_EQ(eng.patrolInFlight(), 0u);
    }

    std::uint64_t
    level(unsigned chip) const
    {
        return eng.ledger().chipLevel(chip, trial.sys.now());
    }
};

TEST(RasEvidence, UncorrectablePatrolFindingWeighsOneErasure)
{
    QuietRig rig(4711);
    // Far more flips than chip 3's 22-EC VLEW word of span 1 can carry.
    for (unsigned block = 32; block < 64; ++block) {
        for (unsigned byte = 0; byte < chipBeatBytes; ++byte)
            rig.trial.rank.corruptByte(3, block, byte, 0xff);
    }
    rig.patrol(1);

    EXPECT_EQ(rig.level(3), RasEngine::erasureWeight);
    for (unsigned c = 0; c < lockstepChips; ++c) {
        if (c != 3) {
            EXPECT_EQ(rig.level(c), 0u) << c;
        }
    }
    // An uncorrectable word is erasure evidence, not corrected bits.
    EXPECT_EQ(rig.eng.tally().scrubBits, 0u);
    EXPECT_EQ(rig.eng.state(), RasState::Healthy);
}

TEST(RasEvidence, TwoBitPatrolFindingAddsTwo)
{
    QuietRig rig(4712);
    // Two single-bit flips in chip 6's VLEW word of span 2.
    rig.trial.rank.corruptByte(6, 70, 1, 0x04);
    rig.trial.rank.corruptByte(6, 85, 3, 0x40);
    rig.patrol(2);

    EXPECT_EQ(rig.level(6), 2u);
    EXPECT_EQ(rig.eng.tally().scrubBits, 2u);

    // The scrub repaired both bits: a second pass over the span finds
    // nothing and adds nothing.
    rig.patrol(2);
    EXPECT_EQ(rig.level(6), 2u);
    EXPECT_EQ(rig.eng.tally().scrubBits, 2u);
    EXPECT_TRUE(rig.trial.rank.isPristine());
}

// Campaign ------------------------------------------------------------

RasCampaignConfig
smallCampaign()
{
    RasCampaignConfig cfg;
    cfg.seed = 91;
    cfg.trials = 16;
    cfg.chunkTrials = 2;
    cfg.trial.rankBlocks = 256;
    cfg.trial.horizon = nsToTicks(12000);
    return cfg;
}

TEST(RasCampaign, LifecycleOracleHoldsAndTalliesAddUp)
{
    std::ostringstream os;
    SweepOptions opts;
    ThreadPool pool(2);
    opts.pool = &pool;
    const RasCampaignConfig cfg = smallCampaign();
    const RasTotals totals = rasCampaign(os, opts, cfg);

    EXPECT_EQ(totals.violations(), 0u);
    const RasTally sum = totals.total();
    EXPECT_EQ(sum.trials, cfg.trials);
    EXPECT_GT(sum.patrolBursts, 0u);
    EXPECT_GT(sum.demandWrites, 0u);
    // Every chip-kill trial detected its kill and finished migrating.
    const RasTally &reram_kill = totals.row("ReRAM/chip-kill");
    EXPECT_EQ(reram_kill.failovers, reram_kill.trials);
    EXPECT_NE(os.str().find("chip-kill"), std::string::npos);
}

TEST(RasCampaign, OutputIsByteIdenticalAcrossWorkerCounts)
{
    const RasCampaignConfig cfg = smallCampaign();
    std::string outputs[2];
    const unsigned workers[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        std::ostringstream os;
        SweepOptions opts;
        ThreadPool pool(workers[i]);
        opts.pool = &pool;
        rasCampaign(os, opts, cfg);
        outputs[i] = os.str();
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

// Env knobs -----------------------------------------------------------

TEST(RasEnv, FromEnvOverridesKnobs)
{
    ::setenv("NVCK_RAS_PATROL", "250", 1);
    ::setenv("NVCK_RAS_THRESHOLD", "99", 1);
    ::setenv("NVCK_RAS_DECAY", "4000", 1);
    const RasConfig cfg = RasConfig::fromEnv();
    EXPECT_EQ(cfg.patrolInterval, nsToTicks(250));
    EXPECT_EQ(cfg.killThreshold, 99u);
    EXPECT_EQ(cfg.decayInterval, nsToTicks(4000));
    ::unsetenv("NVCK_RAS_PATROL");
    ::unsetenv("NVCK_RAS_THRESHOLD");
    ::unsetenv("NVCK_RAS_DECAY");

    const RasConfig defaults = RasConfig::fromEnv();
    EXPECT_EQ(defaults.killThreshold, RasConfig{}.killThreshold);
    EXPECT_EQ(defaults.patrolInterval, RasConfig{}.patrolInterval);
}

} // namespace
} // namespace nvck
