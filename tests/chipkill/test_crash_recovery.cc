/**
 * @file
 * Crash-point semantics at the rank level: applyTornWrite() pins the
 * legal torn states, crashRecovery() must settle every block on the
 * old value, the new value, or a reported UE — never silent garbage —
 * and snapshot()/restore() must round-trip the persistent image.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"

namespace nvck {
namespace {

constexpr unsigned testBlocks = 128; // 4 VLEWs per chip

PmRank
freshRank(std::uint64_t seed = 1, unsigned blocks = testBlocks)
{
    PmRank rank(blocks);
    Rng rng(seed);
    rank.initialize(rng);
    return rank;
}

std::uint16_t
allChipsMask(const PmRank &rank)
{
    return static_cast<std::uint16_t>((1u << rank.chips()) - 1);
}

/** Block reads back as exactly @p image. */
bool
readsAs(PmRank &rank, unsigned block, const std::uint8_t *image)
{
    std::uint8_t out[blockBytes];
    const auto res = rank.readBlock(block, out);
    return !(res.path == ReadPath::Failed) &&
           std::memcmp(out, image, blockBytes) == 0;
}

TEST(CrashRecovery, PristineRankIsANoOp)
{
    PmRank rank = freshRank(5);
    const auto report = rank.crashRecovery();
    EXPECT_EQ(report.vlewsCorrected, 0u);
    EXPECT_EQ(report.blocksRsResolved, 0u);
    EXPECT_EQ(report.blocksErasureResolved, 0u);
    EXPECT_TRUE(report.deadChips.empty());
    EXPECT_TRUE(report.ueBlocks.empty());
    EXPECT_TRUE(rank.isPristine());
}

TEST(CrashRecovery, SnapshotRestoreRoundTrips)
{
    PmRank rank = freshRank(6);
    const RankSnapshot snap = rank.snapshot();

    Rng rng(7);
    std::uint8_t data[blockBytes];
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    rank.writeBlock(3, data);
    rank.corruptByte(2, 40, 1, 0xFF);
    rank.failChip(5, rng);
    ASSERT_FALSE(rank.isPristine());

    rank.restore(snap);
    EXPECT_TRUE(rank.isPristine());
    std::uint8_t out[blockBytes], golden[blockBytes];
    const auto res = rank.readBlock(3, out);
    EXPECT_EQ(res.path, ReadPath::Clean);
    rank.goldenBlock(3, golden);
    EXPECT_EQ(std::memcmp(out, golden, blockBytes), 0);
}

TEST(CrashRecovery, SparseTornWriteSettlesOnOldOrNewAtomically)
{
    // One bit of intent in chip 2's beat, no code-bit delta drained
    // (mid-EUR-coalesce cut). Chip 2's stale BCH rolls the bit back in
    // phase 1; the RS tier may then legitimately roll it *forward*
    // again (the new codeword is one symbol away). Either answer is
    // atomic — what is forbidden is a mix or an unreported loss.
    PmRank rank = freshRank(8);
    const unsigned block = 37;
    std::uint8_t oldv[blockBytes], newv[blockBytes];
    rank.goldenBlock(block, oldv);
    std::memcpy(newv, oldv, blockBytes);
    newv[2 * chipBeatBytes + 4] ^= 0x20;

    rank.applyTornWrite(block, newv, allChipsMask(rank), 0);
    const auto report = rank.crashRecovery();
    EXPECT_TRUE(report.ueBlocks.empty());
    EXPECT_GT(report.vlewsCorrected, 0u); // the BCH rollback happened
    EXPECT_TRUE(readsAs(rank, block, oldv) ||
                readsAs(rank, block, newv));
}

TEST(CrashRecovery, FullyAppliedDataResolvesToNewValue)
{
    // Dense rewrite where every chip latched its data but no chip
    // drained its code bits: the RS word is consistent at the new
    // value, so recovery settles on NEW and re-encodes the code.
    PmRank rank = freshRank(9);
    const unsigned block = 65;
    std::uint8_t newv[blockBytes];
    Rng rng(10);
    for (auto &b : newv)
        b = static_cast<std::uint8_t>(rng.next() & 0xFF);

    rank.applyTornWrite(block, newv, allChipsMask(rank), 0);
    const auto report = rank.crashRecovery();
    EXPECT_TRUE(report.ueBlocks.empty());
    EXPECT_TRUE(readsAs(rank, block, newv));
    // The span's code bits were re-encoded: subsequent reads and a
    // scrub both see a consistent rank.
    const auto scrub = rank.bootScrub();
    EXPECT_FALSE(scrub.uncorrectable);
}

TEST(CrashRecovery, TornWritePlusCompleteWriteViaSamePath)
{
    // code_mask == data_mask == all chips is exactly a completed
    // write: recovery is a no-op and the block reads back new.
    PmRank rank = freshRank(11);
    const unsigned block = 90;
    std::uint8_t newv[blockBytes];
    Rng rng(12);
    for (auto &b : newv)
        b = static_cast<std::uint8_t>(rng.next() & 0xFF);

    const std::uint16_t all = allChipsMask(rank);
    rank.applyTornWrite(block, newv, all, all);
    EXPECT_TRUE(rank.isPristine());
    const auto report = rank.crashRecovery();
    EXPECT_TRUE(report.ueBlocks.empty());
    EXPECT_TRUE(readsAs(rank, block, newv));
}

TEST(CrashRecovery, NeverSilentGarbageUnderRandomTears)
{
    // Property sweep: random torn writes (legal masks only) followed
    // by recovery must leave every block reading as its old value, its
    // intended new value, or a reported UE.
    Rng rng(13);
    for (unsigned trial = 0; trial < 25; ++trial) {
        PmRank rank = freshRank(1000 + trial);
        const unsigned block =
            static_cast<unsigned>(rng.below(rank.blocks()));
        std::uint8_t oldv[blockBytes], newv[blockBytes];
        rank.goldenBlock(block, oldv);
        for (unsigned b = 0; b < blockBytes; ++b)
            newv[b] = static_cast<std::uint8_t>(
                (rng.next() & 1) ? rng.next() & 0xFF : oldv[b]);

        const std::uint16_t all = allChipsMask(rank);
        std::uint16_t data_mask, code_mask;
        if (rng.next() & 1) {
            data_mask = static_cast<std::uint16_t>(rng.next() & all);
            code_mask = 0;
        } else {
            data_mask = all;
            code_mask = static_cast<std::uint16_t>(rng.next() & all);
        }
        rank.applyTornWrite(block, newv, data_mask, code_mask);
        rank.crashRecovery();

        std::uint8_t out[blockBytes];
        const auto res = rank.readBlock(block, out);
        if (res.path == ReadPath::Failed) {
            EXPECT_EQ(res.outcome, RecoveryOutcome::DetectedUE);
            continue;
        }
        const bool is_old = std::memcmp(out, oldv, blockBytes) == 0;
        const bool is_new = std::memcmp(out, newv, blockBytes) == 0;
        EXPECT_TRUE(is_old || is_new)
            << "trial " << trial << " block " << block
            << " returned silent garbage";
    }
}

TEST(CrashRecovery, ConcurrentChipKillStillRebuildsOrReports)
{
    // A chip dies in the same power event that tore a write: the dead
    // chip must be rebuilt via RS erasure everywhere it can be, and
    // every block still reads old/new/UE.
    PmRank rank = freshRank(14);
    Rng rng(15);
    const unsigned block = 50;
    std::uint8_t oldv[blockBytes], newv[blockBytes];
    rank.goldenBlock(block, oldv);
    std::memcpy(newv, oldv, blockBytes);
    newv[0] ^= 0x01; // sparse intent in chip 0

    rank.applyTornWrite(block, newv, allChipsMask(rank), 0);
    rank.failChip(4, rng);
    const auto report = rank.crashRecovery();
    ASSERT_EQ(report.deadChips.size(), 1u);
    EXPECT_EQ(report.deadChips[0], 4u);

    std::uint8_t out[blockBytes], ref[blockBytes];
    for (unsigned b = 0; b < rank.blocks(); ++b) {
        const auto res = rank.readBlock(b, out);
        if (res.path == ReadPath::Failed)
            continue;
        if (b == block) {
            const bool is_old =
                std::memcmp(out, oldv, blockBytes) == 0;
            const bool is_new =
                std::memcmp(out, newv, blockBytes) == 0;
            EXPECT_TRUE(is_old || is_new) << "block " << b;
        } else {
            rank.goldenBlock(b, ref);
            EXPECT_EQ(std::memcmp(out, ref, blockBytes), 0)
                << "block " << b;
        }
    }
}

TEST(CrashDegraded, TornWriteRecoversOrReportsInDegradedMode)
{
    DegradedRank rank(testBlocks);
    Rng rng(16);
    rank.initialize(rng);
    const DegradedSnapshot snap = rank.snapshot();

    for (unsigned trial = 0; trial < 10; ++trial) {
        rank.restore(snap);
        const unsigned block =
            static_cast<unsigned>(rng.below(rank.blocks()));
        std::uint8_t oldv[blockBytes], newv[blockBytes];
        rank.goldenBlock(block, oldv);
        const bool sparse = (trial & 1) != 0;
        std::memcpy(newv, oldv, blockBytes);
        if (sparse) {
            newv[5] ^= 0x08;
        } else {
            for (auto &b : newv)
                b = static_cast<std::uint8_t>(rng.next() & 0xFF);
        }

        rank.applyTornWrite(block, newv, /*code_applied=*/false);
        const auto outcome = rank.scrub();

        std::uint8_t out[blockBytes];
        const auto res = rank.readBlock(block, out);
        if (res.failed) {
            EXPECT_EQ(outcome, RecoveryOutcome::DetectedUE);
            EXPECT_TRUE(rank.isPoisoned(block));
            continue;
        }
        const bool is_old = std::memcmp(out, oldv, blockBytes) == 0;
        const bool is_new = std::memcmp(out, newv, blockBytes) == 0;
        EXPECT_TRUE(is_old || is_new) << "trial " << trial;
        // Sparse tears fit the BCH budget and must roll back.
        if (sparse) {
            EXPECT_TRUE(is_old);
        }
    }
}

} // namespace
} // namespace nvck
