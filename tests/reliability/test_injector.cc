#include <gtest/gtest.h>

#include "ecc/code_params.hh"
#include "reliability/binomial.hh"
#include "reliability/injector.hh"

namespace nvck {
namespace {

TEST(Injector, RsCleanChannel)
{
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 0.0;
    const auto rep = injectRs(rs, c, 0, 50);
    EXPECT_EQ(rep.clean, rep.trials);
    EXPECT_EQ(rep.miscorrected, 0u);
}

TEST(Injector, RsModerateChannelAllCorrected)
{
    // At 2e-4 nearly all accesses have <= 4 byte errors; everything
    // seen in 20k trials should be corrected or clean.
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 2e-4;
    const auto rep = injectRs(rs, c, 0, 20000);
    EXPECT_EQ(rep.miscorrected, 0u);
    EXPECT_EQ(rep.clean + rep.corrected + rep.detected, rep.trials);
    // ~10.9% of blocks contain at least one error (Section IV-A).
    const double err_frac =
        1.0 - rep.rate(rep.clean);
    EXPECT_NEAR(err_frac, 0.109, 0.02);
}

TEST(Injector, RsErrorDistributionMatchesFig7)
{
    // Fig 7: >99.98% of accesses have <= 2 errors at 2e-4 RBER.
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 2e-4;
    const auto rep = injectRs(rs, c, 0, 50000);
    EXPECT_GT(rep.errorCount.cumulativeAt(2), 0.9995);
}

TEST(Injector, RsThresholdRejectsLargePatterns)
{
    // With the cap at 2 corrections, elevated RBER must produce
    // rejections (the VLEW-fallback path) but still zero SDC.
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 5e-3; // elevated to make >2-error words common
    c.maxErrors = 2;
    const auto rep = injectRs(rs, c, 0, 20000);
    EXPECT_GT(rep.detected, 100u);
    EXPECT_EQ(rep.miscorrected, 0u);
}

TEST(Injector, RsFullCapabilityMiscorrectsEventually)
{
    // The appendix's point: at t = 4 the miscorrection probability per
    // uncorrectable word is ~2.4e-4, so a heavy channel with many
    // 5+-error words yields SDC in a large campaign. Use a brutal
    // channel to make uncorrectable words the common case.
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 2e-2;
    c.maxErrors = 4;
    const auto rep = injectRs(rs, c, 0, 60000);
    // Sanity: mostly detected.
    EXPECT_GT(rep.detected, rep.trials / 2);
    // Thresholding at 2 must strictly reduce (here: eliminate) SDC.
    RsCampaign c2 = c;
    c2.maxErrors = 2;
    const auto rep2 = injectRs(rs, c2, 0, 60000);
    EXPECT_LE(rep2.miscorrected, rep.miscorrected);
}

TEST(Injector, RsChipFailurePlusBitErrors)
{
    // Boot-time scenario from Section V-B: a whole chip erased plus
    // residual random errors is still recoverable as long as the
    // erasure budget covers the chip.
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 0.0;
    c.failedChip = 3;
    const auto rep = injectRs(rs, c, 0, 2000);
    EXPECT_EQ(rep.miscorrected, 0u);
    EXPECT_EQ(rep.detected, 0u);
}

TEST(Injector, RsParityChipFailure)
{
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 0.0;
    c.failedChip = 8; // beyond data chips = the parity chip itself
    const auto rep = injectRs(rs, c, 0, 500);
    EXPECT_EQ(rep.miscorrected, 0u);
    EXPECT_EQ(rep.detected, 0u);
}

TEST(Injector, BchVlewSurvivesBootRber)
{
    // The 22-EC VLEW must essentially always correct a 1e-3 channel:
    // expected errors per 2312-bit word ~= 2.3, P(>22) ~ 1e-15.
    const BchCodec vlew(2048, 22);
    BchCampaign c;
    c.rber = 1e-3;
    const auto rep = injectBch(vlew, c, 0, 400);
    EXPECT_EQ(rep.miscorrected, 0u);
    EXPECT_EQ(rep.detected, 0u);
    EXPECT_EQ(rep.clean + rep.corrected, rep.trials);
    EXPECT_GT(rep.corrected, rep.trials / 2);
}

TEST(Injector, BchErrorCountsMatchBinomial)
{
    const BchCodec vlew(2048, 22);
    BchCampaign c;
    c.rber = 1e-3;
    const auto rep = injectBch(vlew, c, 0, 3000);
    // Mean injected errors ~= n * p.
    double mean = 0;
    for (std::size_t k = 0; k < rep.errorCount.buckets(); ++k)
        mean += static_cast<double>(k * rep.errorCount.bucket(k));
    mean /= static_cast<double>(rep.trials);
    const double expected = vlew.n() * c.rber;
    EXPECT_NEAR(mean, expected, 0.1 * expected);
}

TEST(Injector, BchDetectsOverloadChannel)
{
    // Far beyond design strength the decoder should mostly detect.
    const BchCodec small(256, 4);
    BchCampaign c;
    c.rber = 0.05;
    const auto rep = injectBch(small, c, 0, 300);
    EXPECT_GT(rep.detected, rep.trials / 2);
}

} // namespace
} // namespace nvck
