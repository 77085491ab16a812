#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "chipkill/pm_rank.hh"

namespace nvck {
namespace {

/**
 * Property sweep over (RBER, acceptance threshold): whatever the
 * channel and policy, reads never return wrong data silently, and a
 * scrub always restores the pristine state as long as no chip has
 * died. These are the scheme's two safety invariants.
 */
struct PropertyPoint
{
    double rber;
    unsigned threshold;
};

// Without a printer gtest names each case by the struct's raw bytes,
// padding included, so the discovered test names would change from
// one build to the next.
void
PrintTo(const PropertyPoint &p, std::ostream *os)
{
    *os << "rber" << p.rber << "_t" << p.threshold;
}

class RankProperty : public ::testing::TestWithParam<PropertyPoint>
{};

TEST_P(RankProperty, NoSilentCorruptionAndScrubRestores)
{
    const auto [rber, threshold] = GetParam();
    PmRank rank(160);
    Rng rng(static_cast<std::uint64_t>(rber * 1e9) + threshold);
    rank.initialize(rng);

    Rng data_rng(threshold + 101);
    std::uint8_t data[blockBytes], out[blockBytes];
    for (int round = 0; round < 4; ++round) {
        rank.injectErrors(rng, rber);
        // Mixed reads and writes.
        for (unsigned b = 0; b < rank.blocks(); b += 3) {
            const auto res = rank.readBlock(b, out, threshold);
            if (res.path != ReadPath::Failed) {
                ASSERT_TRUE(res.dataCorrect)
                    << "SDC at block " << b << " rber=" << rber
                    << " threshold=" << threshold;
            }
        }
        for (unsigned b = 1; b < rank.blocks(); b += 17) {
            for (auto &byte : data)
                byte =
                    static_cast<std::uint8_t>(data_rng.next() & 0xFF);
            rank.writeBlock(b, data);
        }
    }
    const auto report = rank.bootScrub();
    EXPECT_FALSE(report.uncorrectable);
    EXPECT_TRUE(rank.isPristine());
}

INSTANTIATE_TEST_SUITE_P(
    RberThresholdGrid, RankProperty,
    ::testing::Values(PropertyPoint{1e-5, 2}, PropertyPoint{1e-4, 2},
                      PropertyPoint{2e-4, 2}, PropertyPoint{1e-3, 2},
                      PropertyPoint{2e-4, 0}, PropertyPoint{2e-4, 1},
                      PropertyPoint{2e-4, 3}, PropertyPoint{2e-4, 4},
                      PropertyPoint{1e-3, 4}, PropertyPoint{1e-3, 0}));

/** Every data chip position must be recoverable, not just a sample. */
class ChipFailure : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ChipFailure, AnyChipRecoversAtBoot)
{
    const unsigned chip = GetParam();
    PmRank rank(96);
    Rng rng(chip * 7 + 1);
    rank.initialize(rng);
    rank.failChip(chip, rng);
    const auto report = rank.bootScrub();
    EXPECT_FALSE(report.uncorrectable) << "chip " << chip;
    EXPECT_TRUE(rank.isPristine()) << "chip " << chip;
}

TEST_P(ChipFailure, AnyChipRecoversAtRuntime)
{
    const unsigned chip = GetParam();
    PmRank rank(96);
    Rng rng(chip * 13 + 5);
    rank.initialize(rng);
    rank.failChip(chip, rng);
    std::uint8_t out[blockBytes];
    for (unsigned b = 0; b < rank.blocks(); b += 13) {
        const auto res = rank.readBlock(b, out);
        ASSERT_NE(res.path, ReadPath::Failed)
            << "chip " << chip << " block " << b;
        ASSERT_TRUE(res.dataCorrect)
            << "chip " << chip << " block " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(AllNineChips, ChipFailure,
                         ::testing::Range(0u, 9u));

/** Write-read round trips must hold for any block position. */
class BlockSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(BlockSweep, RoundTripAtEveryVlewOffset)
{
    // Cover block offsets 0, 1, 30, 31 within a VLEW and blocks in
    // different VLEWs.
    const unsigned block = GetParam();
    PmRank rank(96);
    Rng rng(3);
    rank.initialize(rng);
    std::uint8_t data[blockBytes], out[blockBytes];
    for (unsigned i = 0; i < blockBytes; ++i)
        data[i] = static_cast<std::uint8_t>(block * 31 + i);
    rank.writeBlock(block, data);
    EXPECT_TRUE(rank.isPristine());
    const auto res = rank.readBlock(block, out);
    EXPECT_EQ(res.path, ReadPath::Clean);
    EXPECT_EQ(std::memcmp(out, data, blockBytes), 0);
}

INSTANTIATE_TEST_SUITE_P(VlewOffsets, BlockSweep,
                         ::testing::Values(0u, 1u, 30u, 31u, 32u, 63u,
                                           64u, 95u));

TEST(RankProperties, RepeatedWritesNeverDriftTheCode)
{
    // A thousand XOR-delta updates must leave code bits exactly equal
    // to a from-scratch encode (no incremental drift).
    PmRank rank(32);
    Rng rng(9);
    rank.initialize(rng);
    std::uint8_t data[blockBytes];
    for (int w = 0; w < 1000; ++w) {
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
        rank.writeBlock(static_cast<unsigned>(rng.below(32)), data);
    }
    EXPECT_TRUE(rank.isPristine());
}

TEST(RankProperties, InjectedErrorCountIsExact)
{
    PmRank rank(96);
    Rng rng(11);
    rank.initialize(rng);
    const auto injected = rank.injectErrors(rng, 1e-3);
    const auto report = rank.bootScrub();
    ASSERT_FALSE(report.uncorrectable);
    // Scrub must have corrected exactly what was injected.
    EXPECT_EQ(report.bitsCorrected, injected);
}

} // namespace
} // namespace nvck
