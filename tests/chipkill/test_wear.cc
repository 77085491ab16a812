#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>

#include "chipkill/wear.hh"

namespace nvck {
namespace {

TEST(StartGap, MappingIsAlwaysABijection)
{
    StartGapMapper map(40, 3);
    for (int w = 0; w < 500; ++w) {
        std::set<unsigned> frames;
        for (unsigned l = 0; l < map.logicalBlocks(); ++l) {
            const unsigned f = map.physical(l);
            ASSERT_LT(f, map.frames());
            ASSERT_NE(f, map.gapFrame());
            ASSERT_TRUE(frames.insert(f).second)
                << "two logical blocks share frame " << f;
        }
        map.onWrite();
    }
}

TEST(StartGap, MovesEveryIntervalWrites)
{
    StartGapMapper map(16, 5);
    unsigned moves = 0;
    for (int w = 0; w < 100; ++w)
        if (map.onWrite())
            ++moves;
    EXPECT_EQ(moves, 20u);
}

TEST(StartGap, GapVisitsEveryFrame)
{
    StartGapMapper map(8, 1);
    std::set<unsigned> visited;
    visited.insert(map.gapFrame());
    for (int w = 0; w < 9; ++w) {
        map.onWrite();
        visited.insert(map.gapFrame());
    }
    EXPECT_EQ(visited.size(), map.frames());
}

TEST(StartGap, MoveReportsDonorAndGap)
{
    StartGapMapper map(4, 1);
    const unsigned old_gap = map.gapFrame();
    const auto move = map.onWrite();
    ASSERT_TRUE(move.has_value());
    EXPECT_EQ(move->to, old_gap);
    EXPECT_EQ(move->from, map.gapFrame());
}

TEST(WearLevel, DataSurvivesMigrations)
{
    WearLevelledRank rank(60, 4, 11);
    Rng rng(12);
    std::vector<std::array<std::uint8_t, blockBytes>> truth(
        rank.blocks());
    // Populate all logical blocks.
    for (unsigned l = 0; l < rank.blocks(); ++l) {
        for (auto &byte : truth[l])
            byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
        rank.writeBlock(l, truth[l].data());
    }
    // Hammer one hot block to force many gap movements.
    for (int w = 0; w < 300; ++w) {
        truth[7][0] = static_cast<std::uint8_t>(w & 0xFF);
        rank.writeBlock(7, truth[7].data());
    }
    EXPECT_GT(rank.migrations(), 50u);
    std::uint8_t out[blockBytes];
    for (unsigned l = 0; l < rank.blocks(); ++l) {
        const auto res = rank.readBlock(l, out);
        ASSERT_NE(res.path, ReadPath::Failed);
        ASSERT_EQ(std::memcmp(out, truth[l].data(), blockBytes), 0)
            << "logical block " << l;
    }
}

TEST(WearLevel, HotBlockWearSpreads)
{
    // Without leveling a single hot block would concentrate all wear
    // in one frame (imbalance = frames). With start-gap the hot
    // frame's share shrinks as the mapping rotates.
    WearLevelledRank rank(30, 4, 13);
    std::uint8_t data[blockBytes] = {};
    for (int w = 0; w < 2000; ++w) {
        data[0] = static_cast<std::uint8_t>(w);
        rank.writeBlock(3, data);
    }
    // Perfect leveling would be 1.0; a pathological mapping would be
    // ~frames/3 given migration writes. Expect meaningful spreading.
    EXPECT_LT(rank.wearImbalance(),
              static_cast<double>(rank.blocks()) / 3.0);
    // Every frame must have absorbed some writes.
    for (unsigned f = 0; f <= rank.blocks(); ++f)
        EXPECT_GT(rank.frameWrites()[f], 0u) << "frame " << f;
}

TEST(WearLevel, SurvivesErrorsDuringMigration)
{
    WearLevelledRank rank(28, 3, 17);
    Rng rng(18);
    std::uint8_t data[blockBytes] = {};
    for (int w = 0; w < 200; ++w) {
        data[1] = static_cast<std::uint8_t>(w);
        rank.writeBlock(w % rank.blocks(), data);
        if (w % 20 == 19)
            rank.rank().injectErrors(rng, 1e-4);
    }
    std::uint8_t out[blockBytes];
    const auto res = rank.readBlock(5, out);
    EXPECT_NE(res.path, ReadPath::Failed);
}

TEST(EccRotation, RoundTripsAcrossEpochs)
{
    EccRotation rot(264);
    Rng rng(5);
    BitVec code(264);
    code.randomize(rng);
    for (int epoch = 0; epoch < 40; ++epoch) {
        const BitVec physical = rot.rotate(code);
        EXPECT_EQ(rot.unrotate(physical), code) << "epoch " << epoch;
        rot.nextEpoch();
    }
}

TEST(EccRotation, PositionsShiftEachEpoch)
{
    EccRotation rot(264);
    const unsigned before = rot.position(0);
    rot.nextEpoch();
    EXPECT_NE(rot.position(0), before);
}

TEST(EccRotation, EveryCellEventuallyHostsCodeBitZero)
{
    // The point of rotation [88]: over epochs, wear from code bit 0
    // spreads across many physical cells.
    EccRotation rot(264);
    std::set<unsigned> cells;
    for (int epoch = 0; epoch < 264; ++epoch) {
        cells.insert(rot.position(0));
        rot.nextEpoch();
    }
    EXPECT_GT(cells.size(), 200u);
}

TEST(WearOut, StuckBitsDetectedByWriteVerify)
{
    PmRank rank(64);
    Rng rng(21);
    rank.initialize(rng);
    // Wear out three cells in block 12's beats.
    rank.setStuckBit(0, 12 * chipBeatBytes + 2, 5, true);
    rank.setStuckBit(3, 12 * chipBeatBytes + 7, 0, false);
    rank.setStuckBit(8, 12 * chipBeatBytes + 1, 3, true);

    std::uint8_t data[blockBytes];
    Rng data_rng(22);
    unsigned max_bad = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(data_rng.next() & 0xFF);
        max_bad = std::max(max_bad, rank.writeVerify(12, data));
    }
    // Each stuck cell disagrees with the intended value for half of
    // random data; across 8 attempts at least one write must see >= 1
    // bad bit, and never more than the three worn cells.
    EXPECT_GE(max_bad, 1u);
    EXPECT_LE(max_bad, 3u);

    // The stuck bits are still correctable by the runtime path.
    std::uint8_t out[blockBytes];
    const auto res = rank.readBlock(12, out);
    EXPECT_NE(res.path, ReadPath::Failed);
    EXPECT_TRUE(res.dataCorrect);
}

TEST(WearOut, CleanBlockVerifiesZeroBadBits)
{
    PmRank rank(64);
    Rng rng(23);
    rank.initialize(rng);
    std::uint8_t data[blockBytes] = {1, 2, 3};
    EXPECT_EQ(rank.writeVerify(20, data), 0u);
}

TEST(WearOut, DisableBlockAfterWearOutDetection)
{
    // The full Section V-E flow: detect a worn block via write-verify,
    // then disable it; the VLEW stays consistent for its neighbours.
    PmRank rank(64);
    Rng rng(25);
    rank.initialize(rng);
    for (unsigned bit = 0; bit < 6; ++bit)
        rank.setStuckBit(1, 30 * chipBeatBytes + bit, bit, true);

    std::uint8_t data[blockBytes];
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
    const unsigned bad = rank.writeVerify(30, data);
    if (bad > 0)
        rank.disableBlock(30);
    EXPECT_TRUE(rank.isDisabled(30) || bad == 0);

    std::uint8_t out[blockBytes];
    for (unsigned b = 0; b < 32; ++b) {
        if (rank.isDisabled(b))
            continue;
        const auto res = rank.readBlock(b, out);
        EXPECT_TRUE(res.dataCorrect) << "block " << b;
    }
}

// Wear-aware patrol ordering ------------------------------------------

TEST(WearPatrol, OrderIsHottestFirstPermutationUnderRandomHistograms)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        const unsigned spans = 1 + static_cast<unsigned>(rng.below(64));
        std::vector<std::uint64_t> wear(spans);
        for (auto &w : wear)
            w = rng.below(1 + rng.below(1000));

        const std::vector<unsigned> order = wearPatrolOrder(wear);
        ASSERT_EQ(order.size(), spans);
        // A permutation: every span visited exactly once per round.
        std::vector<unsigned> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (unsigned i = 0; i < spans; ++i)
            ASSERT_EQ(sorted[i], i) << "trial " << trial;
        // Hottest-first, exact integer comparison; ties break toward
        // the lower address so the order is a pure function of wear.
        for (unsigned i = 1; i < spans; ++i) {
            const unsigned a = order[i - 1], b = order[i];
            ASSERT_TRUE(wear[a] > wear[b] ||
                        (wear[a] == wear[b] && a < b))
                << "trial " << trial << " position " << i;
        }
        // The first entry is a maximum of the histogram.
        ASSERT_EQ(wear[order[0]],
                  *std::max_element(wear.begin(), wear.end()));
    }
}

TEST(WearPatrol, SpanWritesAggregateFrameHistogram)
{
    WearLevelledRank rank(60, 4, 41);
    std::uint8_t data[blockBytes] = {};
    for (int w = 0; w < 500; ++w) {
        data[0] = static_cast<std::uint8_t>(w);
        rank.writeBlock(static_cast<unsigned>(w) % 7, data);
    }
    const auto spans = rank.spanWrites(32);
    ASSERT_EQ(spans.size(), (rank.rank().blocks() + 31) / 32);
    const std::uint64_t frame_total = std::accumulate(
        rank.frameWrites().begin(), rank.frameWrites().end(),
        std::uint64_t{0});
    const std::uint64_t span_total =
        std::accumulate(spans.begin(), spans.end(), std::uint64_t{0});
    EXPECT_EQ(span_total, frame_total);
    // The hammered logical blocks start in span 0; even with gap
    // migration the hot span must rank first.
    EXPECT_EQ(wearPatrolOrder(spans)[0], 0u);
}

TEST(WearPatrol, ScrubResultsAreVisitOrderInvariant)
{
    // Patrol reordering must never change what a full round corrects:
    // scrubbing every (chip, span) word in address order and in a
    // wear-ranked permutation yields bit-identical media.
    Rng rng(43);
    PmRank addr_rank(128);
    addr_rank.initialize(rng);
    for (int i = 0; i < 40; ++i) {
        addr_rank.corruptByte(
            static_cast<unsigned>(rng.below(addr_rank.chips())),
            static_cast<unsigned>(rng.below(addr_rank.blocks())),
            static_cast<unsigned>(rng.below(chipBeatBytes)),
            static_cast<std::uint8_t>(1u << rng.below(8)));
    }
    PmRank wear_rank(128);
    wear_rank.restore(addr_rank.snapshot());

    const unsigned spans = addr_rank.blocks() / 32;
    std::vector<std::uint64_t> hist(spans);
    for (auto &w : hist)
        w = rng.below(500);
    const std::vector<unsigned> ranked = wearPatrolOrder(hist);

    std::uint64_t addr_bits = 0, wear_bits = 0;
    for (unsigned s = 0; s < spans; ++s) {
        for (unsigned c = 0; c < addr_rank.chips(); ++c) {
            const int a = addr_rank.scrubWord(c, s).corrections;
            const int b = wear_rank.scrubWord(c, ranked[s]).corrections;
            ASSERT_GE(a, 0);
            ASSERT_GE(b, 0);
            addr_bits += static_cast<unsigned>(a);
            wear_bits += static_cast<unsigned>(b);
        }
    }
    EXPECT_EQ(addr_bits, wear_bits);
    EXPECT_GT(addr_bits, 0u);
    EXPECT_TRUE(addr_rank.isPristine());
    EXPECT_TRUE(wear_rank.isPristine());
    EXPECT_TRUE(addr_rank.snapshot() == wear_rank.snapshot());
}

TEST(WearPatrol, PatrolAddressingComposesWithStartGapAndRotation)
{
    // A patrol round over wear-ranked spans, addressed through the
    // start-gap mapping with rotated code layout, must visit every
    // resident logical block exactly once and read it back correct.
    WearLevelledRank rank(90, 3, 53);
    Rng rng(54);
    std::vector<std::array<std::uint8_t, blockBytes>> truth(
        rank.blocks());
    for (unsigned l = 0; l < rank.blocks(); ++l) {
        for (auto &byte : truth[l])
            byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
        rank.writeBlock(l, truth[l].data());
    }
    for (int w = 0; w < 400; ++w) {
        truth[11][0] = static_cast<std::uint8_t>(w);
        rank.writeBlock(11, truth[11].data());
    }

    EccRotation rot(264);
    const std::vector<unsigned> order =
        wearPatrolOrder(rank.spanWrites(32));

    std::set<unsigned> visited;
    std::uint8_t out[blockBytes];
    for (const unsigned span : order) {
        // Rotation epochs advance per patrol span; the code layout
        // change must stay invisible to the logical view.
        Rng code_rng(span + 1);
        BitVec code(264);
        code.randomize(code_rng);
        EXPECT_EQ(rot.unrotate(rot.rotate(code)), code);
        rot.nextEpoch();

        for (unsigned l = 0; l < rank.blocks(); ++l) {
            if (rank.gapMapper().physical(l) / 32 != span)
                continue;
            ASSERT_TRUE(visited.insert(l).second) << l;
            const auto res = rank.readBlock(l, out);
            ASSERT_NE(res.path, ReadPath::Failed);
            ASSERT_EQ(std::memcmp(out, truth[l].data(), blockBytes), 0)
                << "logical block " << l;
        }
    }
    EXPECT_EQ(visited.size(), rank.blocks());
}

} // namespace
} // namespace nvck
