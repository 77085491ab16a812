/**
 * @file
 * Hot-spare subsystem: span-paced spare rebuild bit-identity against
 * the never-failed rank, repair/migrate-back restoring the exact
 * pre-failure image, the spare-loss fallback to degraded failover
 * under live traffic with no lost durable write, and the hot-sparing
 * campaign's oracle + worker-count determinism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/threadpool.hh"
#include "sim/spare.hh"

namespace nvck {
namespace {

// SpareChip rebuild / migrate-back bit-identity ------------------------

TEST(SpareChip, RebuildRestoresNeverFailedImage)
{
    Rng rng(314);
    PmRank rank(128);
    rank.initialize(rng);
    const RankSnapshot before = rank.snapshot();

    // Correctable survivor wear: the pre-fill scrubs must vouch for
    // (and fix) these before the erasure fill trusts the survivors.
    // Chip 5 is about to die, so wear goes on the other lanes only.
    for (int i = 0; i < 10; ++i) {
        unsigned chip =
            static_cast<unsigned>(rng.below(rank.chips() - 1));
        if (chip >= 5)
            ++chip;
        rank.corruptByte(chip,
                         static_cast<unsigned>(rng.below(rank.blocks())),
                         static_cast<unsigned>(rng.below(chipBeatBytes)),
                         static_cast<std::uint8_t>(1u << rng.below(8)));
    }
    rank.failChip(5, rng);

    SpareChip spare(rank, 2, 5);
    EXPECT_EQ(spare.watermark(), 0u);
    EXPECT_FALSE(spare.done());
    unsigned steps = 0;
    ChipFindings survivors;
    while (!spare.done()) {
        // Deliberately not span-aligned: rounding up must compose.
        EXPECT_GT(spare.step(17, survivors), 0u);
        EXPECT_EQ(survivors.size(), rank.chips());
        EXPECT_EQ(survivors[5], 0); // the dead lane is never scrubbed
        ++steps;
    }
    EXPECT_TRUE(spare.done());
    EXPECT_EQ(spare.watermark(), rank.blocks());
    EXPECT_GE(steps, rank.blocks() / 32);
    EXPECT_EQ(spare.poisonedBlocks(), 0u);
    // Distinct (chip, block, byte, bit) draws can collide and cancel;
    // with this seed all ten flips survive to be scrubbed.
    EXPECT_GE(spare.survivorBitsFixed(), 9u);

    // The rebuilt rank is bit-identical to one that never failed:
    // survivor wear scrubbed out, the dead lane erasure-filled, and
    // its VLEW code re-encoded.
    EXPECT_TRUE(rank.snapshot() == before);
    EXPECT_TRUE(rank.isPristine());
}

TEST(SpareChip, MigrateBackRestoresNeverFailedImage)
{
    Rng rng(2718);
    PmRank rank(128);
    rank.initialize(rng);
    const RankSnapshot before = rank.snapshot();

    rank.failChip(2, rng);
    SpareChip spare(rank, 2, 2);
    ChipFindings survivors;
    while (!spare.done())
        spare.step(64, survivors);
    ASSERT_TRUE(spare.done());

    // Latent wear accumulates on the spare while it carries the lane;
    // the copy-back must verify-and-correct, not copy it onto the
    // replacement device.
    for (int i = 0; i < 6; ++i) {
        rank.corruptByte(2,
                         static_cast<unsigned>(rng.below(rank.blocks())),
                         static_cast<unsigned>(rng.below(chipBeatBytes)),
                         static_cast<std::uint8_t>(1u << rng.below(8)));
    }

    spare.beginMigrateBack();
    EXPECT_EQ(spare.watermark(), 0u);
    EXPECT_FALSE(spare.done());
    while (!spare.done()) {
        EXPECT_GT(spare.step(40, survivors), 0u);
        // The copy-back scrubs the lane only: no survivor evidence.
        EXPECT_EQ(survivors, ChipFindings{});
    }
    EXPECT_EQ(spare.watermark(), rank.blocks());
    EXPECT_GE(spare.latentBitsFixed(), 6u);
    // Copied back to the end of the rank: the spare is free again.
    EXPECT_TRUE(spare.done());

    EXPECT_TRUE(rank.snapshot() == before);
    EXPECT_TRUE(rank.isPristine());
}

TEST(SpareChip, UnvouchedSurvivorPoisonsTheSpanInsteadOfMixing)
{
    Rng rng(99);
    PmRank rank(64);
    rank.initialize(rng);
    rank.failChip(7, rng);

    // A survivor span with more errors than its 22-EC VLEW can carry:
    // the erasure fill has no redundancy left to notice, so the
    // rebuild must poison the span rather than risk silent garbage.
    for (unsigned block = 0; block < 32; ++block) {
        for (unsigned byte = 0; byte < chipBeatBytes; ++byte)
            rank.corruptByte(1, block, byte, 0xff);
    }

    SpareChip spare(rank, 2, 7);
    ChipFindings survivors;
    spare.step(32, survivors);
    EXPECT_EQ(survivors[1], -1);
    EXPECT_EQ(spare.poisonedBlocks(), 32u);
    for (unsigned b = 0; b < 32; ++b)
        EXPECT_TRUE(rank.isPoisoned(b)) << b;

    // The untouched second span still rebuilds cleanly.
    spare.step(32, survivors);
    EXPECT_TRUE(spare.done());
    EXPECT_EQ(spare.poisonedBlocks(), 32u);
}

TEST(SpareChip, MaxStepRebuildsWholeRankInOneStep)
{
    Rng rng(1618);
    PmRank rank(128);
    rank.initialize(rng);
    const RankSnapshot before = rank.snapshot();
    rank.failChip(4, rng);

    // NVCK_SPARE_REBUILD_BLOCKS accepts up to 2^32 - 1: the largest
    // step must round up to the whole rank, not wrap to one span.
    SpareChip spare(rank, 2, 4);
    ChipFindings survivors;
    EXPECT_EQ(spare.step(UINT32_MAX, survivors), rank.blocks());
    ASSERT_TRUE(spare.done());
    EXPECT_TRUE(rank.snapshot() == before);

    spare.beginMigrateBack();
    EXPECT_EQ(spare.step(UINT32_MAX, survivors), rank.blocks());
    EXPECT_TRUE(spare.done());
}

// Live-system service routes ------------------------------------------

/** A booted System + mirrored rank, shaped like one campaign trial. */
struct SpareRig
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

    SpareRig(unsigned blocks, std::uint64_t seed, const RasConfig &ras)
        : rng(seed), trial(shapeOf(blocks), rng),
          mirror(sys, rank, oracle, ras, 2, seed + 3)
    {
        mirror.engine().start();
        sys.start();
    }
};

RasConfig
sparedConfig()
{
    RasConfig ras;
    ras.spareEnabled = true;
    return ras;
}

TEST(SpareLive, KillRebuildsOntoSpareAtFullStrength)
{
    SpareRig rig(256, 6001, sparedConfig());
    rig.sys.runUntil(nsToTicks(500));
    rig.mirror.engine().noteChipErrors(4, 1000);
    rig.sys.runUntil(nsToTicks(14000));

    EXPECT_TRUE(rig.mirror.spared());
    EXPECT_FALSE(rig.mirror.completed()); // no degraded migration ran
    EXPECT_EQ(rig.mirror.engine().state(), RasState::Spared);
    EXPECT_EQ(rig.mirror.engine().tally().rebuilds, 1u);
    EXPECT_EQ(rig.mirror.engine().tally().rebuiltBlocks,
              rig.rank.blocks());
    ASSERT_NE(rig.mirror.spareChip(), nullptr);
    EXPECT_TRUE(rig.mirror.spareChip()->done());
    EXPECT_EQ(rig.mirror.engine().rebuildWatermark(), rig.rank.blocks());
    EXPECT_EQ(rig.mirror.spareChip()->poisonedBlocks(), 0u);

    RasTally tally;
    rig.mirror.finalCheck(tally);
    EXPECT_EQ(tally.sdc, 0u);
    EXPECT_EQ(tally.lostDurable, 0u);
    EXPECT_EQ(tally.ue, 0u);
}

TEST(SpareLive, SpareDeathMidRebuildFallsBackToDegraded)
{
    RasConfig ras = sparedConfig();
    // Slow pacing so the rebuild is reliably caught in flight.
    ras.rebuildStepInterval = nsToTicks(500);
    SpareRig rig(256, 7003, ras);
    RasEngine &eng = rig.mirror.engine();

    rig.sys.runUntil(nsToTicks(500));
    eng.noteChipErrors(6, 1000);
    Tick t = nsToTicks(500);
    while (t < nsToTicks(20000) &&
           !(eng.state() == RasState::Rebuilding &&
             eng.rebuildWatermark() >= rig.rank.blocks() / 2)) {
        t += nsToTicks(50);
        rig.sys.runUntil(t);
    }
    ASSERT_EQ(eng.state(), RasState::Rebuilding);

    // The spare device dies mid-rebuild: its trouble bucket crosses
    // and the engine must abandon the spare, re-drain, and complete
    // the PR-9 degraded failover instead — losing nothing durable.
    eng.noteSpareErrors(1000);
    rig.sys.runUntil(t + nsToTicks(16000));

    EXPECT_TRUE(rig.mirror.spareAbandoned());
    EXPECT_FALSE(rig.mirror.spared());
    EXPECT_TRUE(rig.mirror.completed());
    EXPECT_EQ(eng.state(), RasState::Degraded);
    EXPECT_EQ(eng.tally().spareAbandons, 1u);
    EXPECT_EQ(eng.watermark(), rig.rank.blocks());
    ASSERT_NE(rig.mirror.spareChip(), nullptr);
    // The abandoned rebuild stopped where the spare died.
    EXPECT_FALSE(rig.mirror.spareChip()->done());
    EXPECT_GE(eng.rebuildWatermark(), rig.rank.blocks() / 2);
    EXPECT_LT(eng.rebuildWatermark(), rig.rank.blocks());

    RasTally tally;
    rig.mirror.finalCheck(tally);
    EXPECT_EQ(tally.sdc, 0u);
    EXPECT_EQ(tally.lostDurable, 0u);
    EXPECT_EQ(tally.ue, 0u);
}

TEST(SpareLive, KilledLaneEvidenceRoutesByRebuildWatermark)
{
    RasConfig ras = sparedConfig();
    // Slow pacing so the rebuild is reliably caught in flight.
    ras.rebuildStepInterval = nsToTicks(500);
    SpareRig rig(256, 7011, ras);
    RasEngine &eng = rig.mirror.engine();

    rig.sys.runUntil(nsToTicks(500));
    eng.noteChipErrors(5, 1000);
    Tick t = nsToTicks(500);
    while (t < nsToTicks(20000) &&
           !(eng.state() == RasState::Rebuilding &&
             eng.rebuildWatermark() >= rig.rank.blocks() / 2)) {
        t += nsToTicks(50);
        rig.sys.runUntil(t);
    }
    ASSERT_EQ(eng.state(), RasState::Rebuilding);
    const unsigned mark = eng.rebuildWatermark();
    ASSERT_LT(mark, rig.rank.blocks());

    // Below the watermark the spare serves the killed lane: its
    // trouble is the spare's own health (the bucket after the nine
    // lockstep chips). Above it the dead device's erasures carry no
    // information. Nothing reaches the killed chip's own bucket.
    const auto level = [&](unsigned bucket) {
        return eng.ledger().chipLevel(bucket, rig.sys.now());
    };
    const std::uint64_t spare0 = level(lockstepChips);
    const std::uint64_t killed0 = level(5);
    ChipFindings found{};
    found[5] = 3;
    EXPECT_EQ(eng.noteFindings(found, mark - 1), 3u);
    EXPECT_EQ(level(lockstepChips), spare0 + 3);
    found[5] = -1;
    EXPECT_EQ(eng.noteFindings(found, mark), 0u);
    EXPECT_EQ(level(lockstepChips), spare0 + 3);
    EXPECT_EQ(level(5), killed0);
    EXPECT_EQ(eng.state(), RasState::Rebuilding);
}

TEST(SpareLive, ChipReplacedMigratesBackToHealthy)
{
    SpareRig rig(256, 8005, sparedConfig());
    RasEngine &eng = rig.mirror.engine();

    rig.sys.runUntil(nsToTicks(500));
    eng.noteChipErrors(1, 1000);
    Tick t = nsToTicks(500);
    while (t < nsToTicks(20000) && eng.state() != RasState::Spared) {
        t += nsToTicks(100);
        rig.sys.runUntil(t);
    }
    ASSERT_EQ(eng.state(), RasState::Spared);

    eng.chipReplaced();
    rig.sys.runUntil(t + nsToTicks(12000));

    EXPECT_TRUE(rig.mirror.repaired());
    EXPECT_EQ(eng.state(), RasState::Healthy);
    EXPECT_EQ(eng.tally().repairs, 1u);
    ASSERT_NE(rig.mirror.spareChip(), nullptr);
    // Copied back to the end of the rank: the spare is free again.
    EXPECT_TRUE(rig.mirror.spareChip()->done());
    EXPECT_EQ(eng.rebuildWatermark(), rig.rank.blocks());
    EXPECT_GE(eng.stats().repairedAt, eng.stats().sparedAt);

    RasTally tally;
    rig.mirror.finalCheck(tally);
    EXPECT_EQ(tally.sdc, 0u);
    EXPECT_EQ(tally.lostDurable, 0u);
    EXPECT_EQ(tally.ue, 0u);
}

// Campaign ------------------------------------------------------------

SpareCampaignConfig
smallCampaign()
{
    SpareCampaignConfig cfg;
    cfg.seed = 47;
    cfg.trials = 16;
    cfg.chunkTrials = 2;
    cfg.trial.rankBlocks = 256;
    cfg.trial.horizon = nsToTicks(12000);
    return cfg;
}

TEST(SpareCampaign, ServiceRoutesHoldTheOracle)
{
    std::ostringstream os;
    SweepOptions opts;
    ThreadPool pool(2);
    opts.pool = &pool;
    const SpareCampaignConfig cfg = smallCampaign();
    const SpareTotals totals = spareCampaign(os, opts, cfg);

    EXPECT_EQ(totals.violations(), 0u);
    const RasTally sum = totals.total();
    EXPECT_EQ(sum.trials, cfg.trials);
    EXPECT_GT(sum.kills, 0u);
    EXPECT_GT(sum.rebuilds, 0u);
    // Every rebuild-plan trial reached Spared, every repair-plan trial
    // came all the way back to Healthy, and every spare-loss trial
    // fell back to a completed degraded migration.
    for (const PmTech tech : campaignTechs) {
        const auto plan = [&](SparePlan p) -> const RasTally & {
            return totals.row(pmTechName(tech) + "/" + sparePlanName(p));
        };
        EXPECT_EQ(plan(SparePlan::Unarmed).failovers,
                  plan(SparePlan::Unarmed).trials);
        EXPECT_EQ(plan(SparePlan::Rebuild).spared,
                  plan(SparePlan::Rebuild).trials);
        EXPECT_EQ(plan(SparePlan::SpareLoss).failovers,
                  plan(SparePlan::SpareLoss).trials);
        EXPECT_EQ(plan(SparePlan::Repair).repairs,
                  plan(SparePlan::Repair).trials);
        EXPECT_EQ(plan(SparePlan::Unarmed).rebuilds, 0u);
    }
    EXPECT_NE(os.str().find("spare-loss"), std::string::npos);
}

TEST(SpareCampaign, OutputIsByteIdenticalAcrossWorkerCounts)
{
    const SpareCampaignConfig cfg = smallCampaign();
    std::string outputs[2];
    const unsigned workers[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        std::ostringstream os;
        SweepOptions opts;
        ThreadPool pool(workers[i]);
        opts.pool = &pool;
        spareCampaign(os, opts, cfg);
        outputs[i] = os.str();
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

// Env knobs -----------------------------------------------------------

TEST(SpareEnv, FromEnvOverridesSpareKnobs)
{
    ::setenv("NVCK_SPARE_REBUILD_BLOCKS", "48", 1);
    ::setenv("NVCK_SPARE_REBUILD_INTERVAL", "120", 1);
    ::setenv("NVCK_RAS_PATROL_ORDER", "addr", 1);
    const RasConfig cfg = RasConfig::fromEnv();
    EXPECT_EQ(cfg.rebuildBlocksPerStep, 48u);
    EXPECT_EQ(cfg.rebuildStepInterval, nsToTicks(120));
    EXPECT_FALSE(cfg.wearAwarePatrol);
    ::unsetenv("NVCK_SPARE_REBUILD_BLOCKS");
    ::unsetenv("NVCK_SPARE_REBUILD_INTERVAL");
    ::unsetenv("NVCK_RAS_PATROL_ORDER");

    const RasConfig defaults = RasConfig::fromEnv();
    EXPECT_FALSE(defaults.spareEnabled);
    EXPECT_TRUE(defaults.wearAwarePatrol);
}

} // namespace
} // namespace nvck
