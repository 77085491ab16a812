/**
 * @file
 * Differential pins for the batched scrub engine (chipkill/scrub.hh):
 *
 *  - the residue-based syndromes and corrupt-word decode
 *    (solveFromResidue, and decode() which runs it) must be
 *    bit-identical to the textbook reference (ecc/bch_reference.hh)
 *    across the KernelDiff parameter points plus two r < 8 codes, with
 *    0..t+2 injected errors;
 *  - a whole-rank engine sweep must leave byte-identical media and
 *    report identical per-word outcomes as the word-at-a-time
 *    reference (scrub_reference.hh), over random error / burst /
 *    torn-write mixes, for 1 and 8 workers;
 *  - a second sweep straight after the first, which the verdict memo
 *    answers for every clean or uncorrectable word, matches the
 *    reference on the swept bits at 1 and 8 workers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "chipkill/scrub.hh"
#include "chipkill/scrub_reference.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "common/types.hh"
#include "ecc/bch.hh"
#include "ecc/bch_reference.hh"

namespace nvck {
namespace {

struct BchPoint
{
    unsigned k;
    unsigned t;
};

class ScrubFastDecode : public ::testing::TestWithParam<BchPoint> {};

TEST_P(ScrubFastDecode, SolveFromResidueMatchesDecode)
{
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0x5CB + k * 31 + t);
    for (unsigned errors = 0; errors <= t + 2; ++errors) {
        for (unsigned trial = 0; trial < 4; ++trial) {
            BitVec data(k);
            data.randomize(rng);
            BitVec noisy = codec.encode(data);
            noisy.injectExactErrors(rng, errors);

            BchResidue res;
            codec.residueStart(res);
            codec.residueAbsorbBits(res, noisy.raw().data(), noisy.size());
            ASSERT_EQ(codec.residueIsZero(res), codec.isCodeword(noisy))
                << "errors=" << errors;
            if (!codec.residueIsZero(res)) {
                std::vector<GfElem> syn(2 * codec.t());
                codec.syndromesFromResidue(res, syn);
                EXPECT_EQ(syn, referenceSyndromes(codec, noisy))
                    << "errors=" << errors;
            }

            const auto ref = referenceDecode(codec, noisy);
            BitVec decoded = noisy;
            const auto dec = codec.decode(decoded);
            const auto fast = codec.solveFromResidue(res);
            for (const auto *got : {&dec, &fast}) {
                EXPECT_EQ(got->status, ref.status) << "errors=" << errors;
                EXPECT_EQ(got->corrections, ref.corrections);
                EXPECT_EQ(got->positions, ref.positions);
            }
        }
    }
}

TEST_P(ScrubFastDecode, SegmentedAbsorbMatchesWholeWord)
{
    // The engine feeds [code bits | data bytes] as two segments; any
    // segmentation must land on the same residue as one absorb of the
    // whole word.
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0xAB5 + k + t);
    BitVec word(codec.n());
    word.randomize(rng);

    BchResidue whole;
    codec.residueStart(whole);
    codec.residueAbsorbBits(whole, word.raw().data(), word.size());

    for (const unsigned split : {1u, 7u, codec.r(), codec.n() - 3}) {
        BitVec low(split);
        BitVec high(codec.n() - split);
        low.copyRange(0, word, 0, split);
        high.copyRange(0, word, split, codec.n() - split);
        BchResidue seg;
        codec.residueStart(seg);
        codec.residueAbsorbBits(seg, high.raw().data(), high.size());
        codec.residueAbsorbBits(seg, low.raw().data(), low.size());
        EXPECT_EQ(seg.rem, whole.rem) << "split=" << split;
    }

    // Byte-granular top segment through residueAbsorbBytes (the data
    // bits are whole bytes for every code point here), code bits
    // through the packed-word path — exactly the engine's split.
    ASSERT_EQ(k % 8, 0u);
    std::vector<std::uint8_t> data_bytes(k / 8);
    word.getBytes(codec.r(), data_bytes.data(), data_bytes.size());
    BitVec low(codec.r());
    low.copyRange(0, word, 0, codec.r());
    BchResidue seg;
    codec.residueStart(seg);
    codec.residueAbsorbBytes(seg, data_bytes.data(),
                             data_bytes.size());
    codec.residueAbsorbBits(seg, low.raw().data(), low.size());
    EXPECT_EQ(seg.rem, whole.rem);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodePoints, ScrubFastDecode,
    ::testing::Values(BchPoint{32, 1}, BchPoint{64, 1},
                      BchPoint{64, 2}, BchPoint{128, 3},
                      BchPoint{512, 5}, BchPoint{512, 8},
                      BchPoint{512, 14}, BchPoint{2048, 22}),
    [](const auto &info) {
        return "k" + std::to_string(info.param.k) + "t" +
               std::to_string(info.param.t);
    });

constexpr unsigned testBlocks = 256; // 8 VLEWs per chip

/** A rank with bit errors, one hopeless burst, and torn writes. */
PmRank
messyRank(std::uint64_t seed)
{
    PmRank rank(testBlocks);
    Rng rng(seed);
    rank.initialize(rng);

    // Bit errors heavy enough to dirty many VLEWs.
    rank.injectErrors(rng, 1e-3);

    // A dense burst that overwhelms one VLEW (uncorrectable word).
    const auto chip = static_cast<unsigned>(rng.below(rank.chips()));
    for (unsigned block = 0; block < 8; ++block)
        for (unsigned byte = 0; byte < chipBeatBytes; ++byte)
            rank.corruptByte(chip, block, byte, 0xFF);

    // Torn writes: partial bursts and full bursts with partial EUR
    // drains, exactly the states crashRecovery() scrubs.
    std::uint8_t data[blockBytes];
    for (unsigned i = 0; i < 4; ++i) {
        const auto block =
            static_cast<unsigned>(rng.below(rank.blocks()));
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
        if (rng.chance(0.5)) {
            const auto data_mask =
                static_cast<std::uint16_t>(rng.next() & 0x1FF);
            rank.applyTornWrite(block, data, data_mask, 0);
        } else {
            const auto code_mask =
                static_cast<std::uint16_t>(rng.next() & 0x1FF);
            rank.applyTornWrite(block, data, 0x1FF, code_mask);
        }
    }
    return rank;
}

/**
 * Sweep a copy of @p dirty with the engine and pin the outcomes and
 * the scrubbed media (golden copies and stuck cells untouched) to the
 * reference; returns the engine's outcomes.
 */
std::vector<ScrubWordResult>
sweepMatchesReference(const VlewStore &dirty,
                      const std::vector<bool> &skip = {},
                      ThreadPool *pool = nullptr)
{
    VlewStore media = dirty;
    const auto batched = ScrubEngine(pool).sweep(media, skip);
    const auto ref = scrubReference(dirty, skip);
    EXPECT_EQ(batched, ref.outcomes);
    EXPECT_TRUE(matchesReference(media, ref));
    // Only the stored bits may move.
    const std::size_t beats = dirty.words() * dirty.beatsPerWord();
    for (std::size_t b = 0; b < beats; ++b)
        EXPECT_EQ(std::memcmp(media.goldenBeat(b), dirty.goldenBeat(b),
                              dirty.beatBytes()),
                  0)
            << "beat " << b;
    return batched;
}

TEST(ScrubEngineDiff, CleanRankStaysUntouched)
{
    PmRank rank(testBlocks);
    Rng rng(1);
    rank.initialize(rng);
    const auto before = rank.snapshot();

    VlewStore media = before.media;
    const auto outcomes = ScrubEngine().sweep(media);
    ASSERT_EQ(outcomes.size(),
              static_cast<std::size_t>(rank.chips()) *
                  rank.vlewsPerChip());
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.corrections, 0);
        EXPECT_EQ(o.changedBlocks, 0u);
    }
    EXPECT_TRUE(media == before.media);
    EXPECT_TRUE(media.isPristine());

    // The rank's own boot scrub runs the same sweep.
    EXPECT_EQ(rank.bootScrub().vlewsWithErrors, 0u);
    EXPECT_TRUE(rank.snapshot() == before);

    const auto stats = tally(outcomes);
    EXPECT_EQ(stats.wordsScanned, outcomes.size());
    EXPECT_EQ(stats.wordsDirty, 0u);
    EXPECT_EQ(stats.bitsCorrected, 0u);
}

TEST(ScrubEngineDiff, ErrorMixesMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        PmRank rank = messyRank(seed);
        const auto batched = sweepMatchesReference(rank.snapshot().media);
        const auto stats = tally(batched);
        EXPECT_GT(stats.wordsDirty, 0u);
        EXPECT_GT(stats.wordsUncorrectable, 0u);
    }
}

TEST(ScrubEngineDiff, WorkerCountIsByteIdentical)
{
    const VlewStore dirty = messyRank(42).snapshot().media;

    ThreadPool one(1);
    ThreadPool eight(8);
    std::vector<std::vector<ScrubWordResult>> outcomes;
    std::vector<VlewStore> media;
    for (ThreadPool *pool : {&one, &eight}) {
        media.push_back(dirty);
        outcomes.push_back(ScrubEngine(pool).sweep(media.back()));
    }
    EXPECT_EQ(outcomes[1], outcomes[0]);
    EXPECT_TRUE(media[1] == media[0]);
    sweepMatchesReference(dirty, {}, &eight);
}

TEST(ScrubEngineDiff, BackToBackSweepsMatchAtOneAndEightWorkers)
{
    const VlewStore dirty = messyRank(7).snapshot().media;

    ThreadPool one(1);
    ThreadPool eight(8);
    std::vector<std::vector<ScrubWordResult>> first, second;
    std::vector<VlewStore> media;
    for (ThreadPool *pool : {&one, &eight}) {
        media.push_back(dirty);
        first.push_back(ScrubEngine(pool).sweep(media.back()));
        const auto ref = scrubReference(media.back());
        second.push_back(ScrubEngine(pool).sweep(media.back()));
        EXPECT_EQ(second.back(), ref.outcomes);
        EXPECT_TRUE(matchesReference(media.back(), ref));
    }
    EXPECT_EQ(first[1], first[0]);
    EXPECT_EQ(second[1], second[0]);
    EXPECT_TRUE(media[1] == media[0]);
    // Clean and uncorrectable verdicts repeat; corrected words are
    // re-proven and come back clean.
    const auto stats = tally(first[0]);
    EXPECT_GT(stats.wordsUncorrectable, 0u);
    EXPECT_GT(stats.bitsCorrected, 0u);
    for (std::size_t w = 0; w < first[0].size(); ++w)
        EXPECT_EQ(second[0][w].corrections,
                  first[0][w].corrections < 0 ? -1 : 0)
            << "word " << w;
}

TEST(ScrubEngineDiff, StuckCellsReassertedLikeReference)
{
    PmRank rank(testBlocks);
    Rng rng(9);
    rank.initialize(rng);
    // Stuck cells that disagree with the stored data, plus bit errors.
    rank.setStuckBit(2, 17, 3, true);
    rank.setStuckBit(2, 17, 4, false);
    rank.setStuckBit(5, 900, 0, true);
    rank.injectErrors(rng, 5e-4);
    sweepMatchesReference(rank.snapshot().media);
}

/** A degraded rank with bit errors plus in- and out-of-budget tears. */
DegradedRank
messyDegraded(std::uint64_t seed)
{
    DegradedRank rank(64);
    Rng rng(seed);
    rank.initialize(rng);
    rank.injectErrors(rng, 2e-4);

    // A torn write whose delta fits the BCH budget (rolls back)...
    std::uint8_t data[blockBytes];
    rank.goldenBlock(5, data);
    for (unsigned i = 0; i < 6; ++i)
        data[rng.below(blockBytes)] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
    rank.applyTornWrite(5, data, /*code_applied=*/false);

    // ...and one whose random delta is far beyond it (uncorrectable).
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
    rank.applyTornWrite(9, data, /*code_applied=*/false);
    return rank;
}

TEST(ScrubEngineDiff, DegradedRankMatchesReference)
{
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        SCOPED_TRACE(seed);
        DegradedRank rank = messyDegraded(seed);
        const auto dirty = rank.snapshot();
        const auto batched = sweepMatchesReference(dirty.media);
        EXPECT_GT(tally(batched).wordsUncorrectable, 0u);

        // The full scrub (engine + poisoning policy) must be
        // deterministic across repeated runs from the same image.
        rank.scrub();
        const auto scrubbed = rank.snapshot();
        EXPECT_TRUE(rank.isPristine());
        rank.restore(dirty);
        rank.scrub();
        EXPECT_TRUE(rank.snapshot() == scrubbed);
    }
}

TEST(ScrubEngineDiff, DegradedPoisonedSpansAreSkipped)
{
    DegradedRank rank(64);
    Rng rng(21);
    rank.initialize(rng);
    // A random torn delta far outside the BCH budget: scrub() zeroes
    // and poisons the span.
    std::uint8_t junk[blockBytes];
    for (auto &byte : junk)
        byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
    rank.applyTornWrite(0, junk, /*code_applied=*/false);
    rank.scrub();
    ASSERT_TRUE(rank.isPoisoned(0));

    // Subsequent sweeps leave the poisoned span untouched and report
    // it clean/skipped through both paths; a second torn write into
    // the skipped span proves the skip is an input, not a clean word.
    auto snap = rank.snapshot();
    snap.media.applyDelta(1, junk, VlewStore::Data);
    const auto batched =
        sweepMatchesReference(snap.media, snap.poisonedVlew);
    EXPECT_EQ(batched[0].corrections, 0);
    VlewStore media = snap.media;
    ScrubEngine().sweep(media, snap.poisonedVlew);
    EXPECT_TRUE(media == snap.media);
}

} // namespace
} // namespace nvck
