/**
 * @file
 * Property-based tests for the analytic UE/storage models: physical
 * monotonicity in RBER, the closed-form storage cost at the paper's
 * VLEW design point, and — the determinism contract of the benches
 * that declare model points through ParallelSweep — independence of
 * the results from the order in which points are declared and from
 * the worker count (1, 2 and 8).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "reliability/error_model.hh"
#include "reliability/storage_model.hh"
#include "reliability/ue_model.hh"
#include "sim/sweep_on.hh"

namespace nvck {
namespace {

const std::vector<double> kRberLadder = {1e-6, 1e-5, 5e-5, 1e-4, 2e-4,
                                         5e-4, 1e-3, 2e-3, 4e-3};

TEST(ModelProperties, UeRateMonotoneInRber)
{
    std::vector<ReliabilityPoint> pts;
    for (double rber : kRberLadder)
        pts.push_back(evaluateProposal(rber));
    for (std::size_t i = 1; i < pts.size(); ++i) {
        SCOPED_TRACE("rber=" + std::to_string(kRberLadder[i]));
        // More raw errors can never make any failure mode less likely.
        EXPECT_GE(pts[i].vlewFailureProb, pts[i - 1].vlewFailureProb);
        EXPECT_GE(pts[i].blockUeBoot, pts[i - 1].blockUeBoot);
        EXPECT_GE(pts[i].blockSdcRuntime, pts[i - 1].blockSdcRuntime);
        EXPECT_GE(pts[i].vlewFallbackFraction,
                  pts[i - 1].vlewFallbackFraction);
    }
    // The ladder spans the paper's regimes, so the extremes separate:
    // runtime rates are harmless, past-boot rates are not.
    EXPECT_LT(pts.front().blockUeBoot, 1e-15);
    EXPECT_GT(pts.back().vlewFailureProb,
              1e6 * pts.front().vlewFailureProb);
}

TEST(ModelProperties, StorageCostClosedFormAtPaperVlewPoint)
{
    StorageTargets in;
    in.rber = rber::bootTarget;
    in.ueTarget = rber::ueTargetPerBlock;
    const auto sol = vlewScheme(in, 256);
    ASSERT_TRUE(sol.feasible);

    // Total cost decomposes exactly as code bits plus a parity chip
    // carrying its own share of code bits:
    //   total = code + (1/dataChips) * (1 + code)
    EXPECT_DOUBLE_EQ(sol.totalOverhead,
                     sol.codeOverhead +
                         (1.0 / in.dataChips) *
                             (1.0 + sol.codeOverhead));
    // ... and lands on the paper's 27% sweet spot at 256B words.
    EXPECT_NEAR(sol.totalOverhead, 0.27, 0.03);
    EXPECT_GE(sol.t, 21u);
    EXPECT_LE(sol.t, 25u);
}

TEST(ModelProperties, VlewSweepIndependentOfSubmissionOrder)
{
    StorageTargets in;
    in.rber = rber::bootTarget;
    in.ueTarget = rber::ueTargetPerBlock;

    // A deliberately scrambled submission order; every permutation
    // must yield the bitwise-same solution per size.
    const std::vector<unsigned> shuffled = {256, 8,   1024, 64,
                                            16,  512, 32,   128};
    for (unsigned workers : {1u, 2u, 8u}) {
        const auto rows = sweepOn<StorageSolution>(
            workers, 4, shuffled.size(), [&](std::size_t i, Rng &) {
                return vlewScheme(in, shuffled[i]);
            });
        ASSERT_EQ(rows.size(), shuffled.size());
        for (std::size_t i = 0; i < shuffled.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " size=" + std::to_string(shuffled[i]));
            const auto solo = vlewScheme(in, shuffled[i]);
            EXPECT_EQ(rows[i].feasible, solo.feasible);
            EXPECT_EQ(rows[i].t, solo.t);
            EXPECT_EQ(rows[i].codeOverhead, solo.codeOverhead);
            EXPECT_EQ(rows[i].totalOverhead, solo.totalOverhead);
            EXPECT_EQ(rows[i].scheme, solo.scheme);
        }
    }
}

TEST(ModelProperties, UeSweepIndependentOfSubmissionOrder)
{
    std::vector<double> shuffled = kRberLadder;
    // Fixed scramble (reverse + swap) — no runtime randomness so the
    // test itself is reproducible.
    std::reverse(shuffled.begin(), shuffled.end());
    std::swap(shuffled[1], shuffled[4]);

    for (unsigned workers : {1u, 2u, 8u}) {
        const auto swept = sweepOn<ReliabilityPoint>(
            workers, 1, shuffled.size(), [&](std::size_t i, Rng &) {
                return evaluateProposal(shuffled[i]);
            });
        ASSERT_EQ(swept.size(), shuffled.size());
        for (std::size_t i = 0; i < shuffled.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " rber=" + std::to_string(shuffled[i]));
            const auto solo = evaluateProposal(shuffled[i]);
            EXPECT_EQ(swept[i].rber, solo.rber);
            EXPECT_EQ(swept[i].vlewFailureProb, solo.vlewFailureProb);
            EXPECT_EQ(swept[i].blockUeBoot, solo.blockUeBoot);
            EXPECT_EQ(swept[i].blockSdcRuntime, solo.blockSdcRuntime);
            EXPECT_EQ(swept[i].vlewFallbackFraction,
                      solo.vlewFallbackFraction);
        }
    }
}

TEST(ModelProperties, OutageSweepMatchesSerialCalls)
{
    const std::vector<int> techs = {static_cast<int>(MemTech::Reram),
                                    static_cast<int>(MemTech::Pcm3),
                                    static_cast<int>(MemTech::Pcm2)};
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const auto swept = sweepOn<double>(
            workers, 2, techs.size(), [&](std::size_t i, Rng &) {
                return maxOutageSeconds(techs[i], 1e-15);
            });
        ASSERT_EQ(swept.size(), techs.size());
        for (std::size_t i = 0; i < techs.size(); ++i)
            EXPECT_EQ(swept[i], maxOutageSeconds(techs[i], 1e-15));
    }
}

} // namespace
} // namespace nvck
