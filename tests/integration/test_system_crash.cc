/**
 * @file
 * Ties the timing and bit-level crash worlds together:
 *
 *  - differential: the timing campaign writes the media through the
 *    two-phase primitives (applyTornWrite data burst + drainCodeBits
 *    retirement) while PR 5's CrashInjector uses the one-shot
 *    applyTornWrite(data_mask, code_mask). Where the models overlap —
 *    the torn media state a cut leaves behind — both constructions
 *    must be bit-identical before recovery and reach identical
 *    recovery outcomes after it, for every torn shape and seed;
 *  - end-to-end: a small whole-system campaign through the real
 *    System::powerFail() path must uphold the persist-order oracle
 *    and stay deterministic across worker counts;
 *  - golden lock: the campaign table for a pinned tiny configuration
 *    is locked byte-for-byte against tests/golden/system_crash.txt
 *    (regenerate with NVCK_REGEN_GOLDEN=1 after intentional changes).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chipkill/pm_rank.hh"
#include "common/threadpool.hh"
#include "sim/syscrash.hh"

namespace nvck {
namespace {

constexpr unsigned kBlocks = 64;

std::uint16_t
fullMask(const PmRank &rank)
{
    return static_cast<std::uint16_t>((1u << rank.chips()) - 1);
}

/** Random chip subset (same fix-ups as the injectors). */
std::uint16_t
chipMask(Rng &rng, unsigned chips, bool forbid_empty, bool forbid_full)
{
    const std::uint16_t full =
        static_cast<std::uint16_t>((1u << chips) - 1);
    std::uint16_t mask = 0;
    for (unsigned c = 0; c < chips; ++c) {
        if (rng.chance(0.5))
            mask |= static_cast<std::uint16_t>(1u << c);
    }
    if (forbid_empty && mask == 0)
        mask = static_cast<std::uint16_t>(1u << rng.below(chips));
    if (forbid_full && mask == full)
        mask &= static_cast<std::uint16_t>(~(1u << rng.below(chips)));
    return mask;
}

void
randomValue(Rng &rng, std::uint8_t *out)
{
    for (unsigned i = 0; i < blockBytes; ++i)
        out[i] = static_cast<std::uint8_t>(rng.next());
}

/** Identical post-recovery outcomes, block by block. */
void
expectSameRecovery(PmRank &a, PmRank &b, const std::string &what)
{
    a.crashRecovery(2);
    b.crashRecovery(2);
    std::uint8_t out_a[blockBytes], out_b[blockBytes];
    for (unsigned blk = 0; blk < a.blocks(); ++blk) {
        const auto ra = a.readBlock(blk, out_a, 2);
        const auto rb = b.readBlock(blk, out_b, 2);
        EXPECT_EQ(ra.path, rb.path) << what << " block " << blk;
        EXPECT_EQ(a.isPoisoned(blk), b.isPoisoned(blk))
            << what << " block " << blk;
        EXPECT_EQ(0, std::memcmp(out_a, out_b, blockBytes))
            << what << " block " << blk << ": readback diverged";
    }
}

/**
 * The three torn shapes a power cut can leave, expressed both ways.
 * data_torn: mid-burst cut (strict data subset, nothing drained).
 * drain_torn: mid-drain cut (full data, strict code subset).
 * Neither: the EUR coalesce window (full data, nothing drained).
 */
struct TornShape
{
    const char *name;
    bool dataTorn;
    bool drainTorn;
};

const TornShape kShapes[] = {
    {"mid-burst", true, false},
    {"eur-window", false, false},
    {"torn-drain", false, true},
};

// Without a printer gtest names each case by the struct's raw bytes,
// which include the (ASLR-randomized) address of `name`, so the
// discovered test names would change from one build to the next.
void
PrintTo(const TornShape &shape, std::ostream *os)
{
    *os << shape.name;
}

class TwoPhaseDifferential
    : public ::testing::TestWithParam<TornShape>
{
};

TEST_P(TwoPhaseDifferential, MatchesOneShotTornWrite)
{
    const TornShape shape = GetParam();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng init(900 + seed);
        PmRank one_shot(kBlocks);
        one_shot.initialize(init);
        Rng init_b(900 + seed); // same stream -> same pristine rank
        PmRank two_phase(kBlocks);
        two_phase.initialize(init_b);

        Rng rng(7000 + seed);
        const unsigned block =
            static_cast<unsigned>(rng.below(kBlocks));
        std::uint8_t old_data[blockBytes];
        one_shot.goldenBlock(block, old_data);
        std::uint8_t new_data[blockBytes];
        randomValue(rng, new_data);

        std::uint16_t data_mask = fullMask(one_shot);
        std::uint16_t code_mask = 0;
        if (shape.dataTorn)
            data_mask = chipMask(rng, one_shot.chips(), true, true);
        if (shape.drainTorn)
            code_mask = chipMask(rng, one_shot.chips(), true, true);

        // PR 5's bit-level construction: one torn write.
        one_shot.applyTornWrite(block, new_data, data_mask, code_mask);

        // The timing mirror's construction: data burst at issue time,
        // then (for the drained chips) the EUR register retiring.
        two_phase.applyTornWrite(block, new_data, data_mask, 0);
        if (code_mask)
            two_phase.drainCodeBits(block, old_data, code_mask);

        // Bit-identical persistent media (the state recovery starts
        // from), stuck cells and block flags included.
        EXPECT_TRUE(one_shot.snapshot() == two_phase.snapshot())
            << shape.name << " seed " << seed;
        expectSameRecovery(one_shot, two_phase,
                           std::string(shape.name) + " seed " +
                               std::to_string(seed));
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TwoPhaseDifferential,
                         ::testing::ValuesIn(kShapes),
                         [](const auto &info) {
                             return std::string(info.param.name) ==
                                            "mid-burst"
                                        ? "MidBurst"
                                        : (std::string(
                                               info.param.name) ==
                                                   "eur-window"
                                               ? "EurWindow"
                                               : "TornDrain");
                         });

TEST(TwoPhaseDifferential, CoalescedChainMatchesOneShotOfFinalIntent)
{
    // Several bursts coalescing in one EUR register before a torn
    // drain must leave the same media as a single torn write of the
    // final intent: the register holds one coalesced delta, not a
    // history (the linearity the paper's Section V-D leans on).
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng init(1400 + seed);
        PmRank one_shot(kBlocks);
        one_shot.initialize(init);
        Rng init_b(1400 + seed);
        PmRank two_phase(kBlocks);
        two_phase.initialize(init_b);

        Rng rng(5200 + seed);
        const unsigned block =
            static_cast<unsigned>(rng.below(kBlocks));
        std::uint8_t old_data[blockBytes];
        one_shot.goldenBlock(block, old_data);
        std::uint8_t v1[blockBytes], v2[blockBytes], v3[blockBytes];
        randomValue(rng, v1);
        randomValue(rng, v2);
        randomValue(rng, v3);
        const std::uint16_t code_mask =
            chipMask(rng, one_shot.chips(), true, true);

        one_shot.applyTornWrite(block, v3, fullMask(one_shot),
                                code_mask);

        two_phase.applyTornWrite(block, v1, fullMask(two_phase), 0);
        two_phase.applyTornWrite(block, v2, fullMask(two_phase), 0);
        two_phase.applyTornWrite(block, v3, fullMask(two_phase), 0);
        two_phase.drainCodeBits(block, old_data, code_mask);

        EXPECT_TRUE(one_shot.snapshot() == two_phase.snapshot())
            << "chain seed " << seed;
        expectSameRecovery(one_shot, two_phase,
                           "chain seed " + std::to_string(seed));
    }
}

SysCrashCampaignConfig
tinyCampaign()
{
    SysCrashCampaignConfig cfg;
    cfg.seed = 505;
    cfg.trials = 16; // 2 per (tech x site) cell
    cfg.chunkTrials = 2;
    return cfg;
}

TEST(SystemCrashCampaign, OracleHoldsOnSmallCampaign)
{
    std::ostringstream os;
    SweepOptions opts;
    ThreadPool pool(2);
    opts.pool = &pool;
    const SysCrashTotals totals =
        systemCrashCampaign(os, opts, tinyCampaign());

    EXPECT_EQ(totals.violations(), 0u);
    const SysCrashTally sum = totals.total();
    EXPECT_EQ(sum.trials, 16u);
    // Something actually happened on the timing path.
    EXPECT_GT(sum.bursts, 0u);
    EXPECT_GT(sum.pendingAtCut, 0u);
    // With zero violations the torn verdicts partition the pending
    // population exactly: old / intermediate / new / reported UE.
    EXPECT_EQ(sum.tornOld + sum.tornNew + sum.tornIntermediate +
                  sum.tornUe,
              sum.pendingAtCut);
    EXPECT_NE(os.str().find("cut site"), std::string::npos);
}

TEST(SystemCrashCampaign, SeededTrialIsReplayable)
{
    // The --seed contract: the same substream reproduces the same
    // tally, the shape a CI failure replay relies on.
    SysCrashTrialConfig tc;
    tc.tech = PmTech::Reram;
    tc.site = CutSite::AtPmWrite;
    SysCrashTally a, b;
    {
        Rng rng(Rng(424242).substream(3));
        a = runSysCrashTrial(tc, rng);
    }
    {
        Rng rng(Rng(424242).substream(3));
        b = runSysCrashTrial(tc, rng);
    }
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.cutsAtSite, b.cutsAtSite);
    EXPECT_EQ(a.bursts, b.bursts);
    EXPECT_EQ(a.drains, b.drains);
    EXPECT_EQ(a.flushedAtCut, b.flushedAtCut);
    EXPECT_EQ(a.pendingAtCut, b.pendingAtCut);
    EXPECT_EQ(a.tornOld, b.tornOld);
    EXPECT_EQ(a.tornNew, b.tornNew);
    EXPECT_EQ(a.tornUe, b.tornUe);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.violations, 0u);
}

/** See test_bench_golden.cc for the regen workflow. */
std::string
runGoldenCampaign(unsigned workers)
{
    ThreadPool pool(workers);
    SweepOptions opts;
    opts.pool = &pool;
    std::ostringstream os;
    systemCrashCampaign(os, opts, tinyCampaign());
    return os.str();
}

TEST(SystemCrashCampaign, TableMatchesGoldenForOneAndEightWorkers)
{
    const std::string serial = runGoldenCampaign(1);
    const std::string wide = runGoldenCampaign(8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, wide)
        << "8-worker output diverged from the serial run";

    const std::string path =
        std::string(NVCK_GOLDEN_DIR) + "/system_crash.txt";
    if (std::getenv("NVCK_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << serial;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run with NVCK_REGEN_GOLDEN=1 to create it";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), serial)
        << "campaign output changed vs " << path;
}

} // namespace
} // namespace nvck
