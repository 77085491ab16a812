/**
 * @file
 * Differential pins for the batched scrub engine (chipkill/scrub.hh):
 *
 *  - the residue-based corrupt-word decode (solveFromResidue, and
 *    decode() which runs it) must be bit-identical to the textbook
 *    reference decoder (tests/ecc/bch_reference.hh) across the
 *    KernelDiff parameter points plus two r < 8 codes, with 0..t+2
 *    injected errors;
 *  - a whole-rank engine sweep must leave byte-identical media and
 *    report identical per-word outcomes as the word-at-a-time
 *    reference path, over random error / burst / torn-write mixes,
 *    for 1 and 8 workers and odd batch sizes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "chipkill/scrub.hh"
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
    for (const CodecKernel kernel :
         {CodecKernel::Scalar, CodecKernel::Sliced}) {
        const BchCodec codec(k, t, 0, kernel);
        Rng rng(0x5CB + k * 31 + t +
                (kernel == CodecKernel::Sliced ? 1 : 0));
        for (unsigned errors = 0; errors <= t + 2; ++errors) {
            for (unsigned trial = 0; trial < 4; ++trial) {
                BitVec data(k);
                data.randomize(rng);
                BitVec noisy = codec.encode(data);
                noisy.injectExactErrors(rng, errors);

                BchResidue res;
                codec.residueStart(res);
                codec.residueAbsorbBits(res, noisy.raw().data(),
                                        noisy.size());
                ASSERT_EQ(codec.residueIsZero(res),
                          codec.isCodeword(noisy))
                    << "errors=" << errors;
                if (!codec.residueIsZero(res)) {
                    EXPECT_EQ(codec.syndromesFromResidue(res),
                              codec.syndromes(noisy))
                        << "errors=" << errors;
                }

                const auto ref = referenceDecode(codec, noisy);
                BitVec decoded = noisy;
                const auto dec = codec.decode(decoded);
                const auto fast = codec.solveFromResidue(res);
                for (const auto *got : {&dec, &fast}) {
                    EXPECT_EQ(got->status, ref.status)
                        << "errors=" << errors;
                    EXPECT_EQ(got->corrections, ref.corrections);
                    EXPECT_EQ(got->positions, ref.positions);
                }
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

bool
sameMedia(const RankSnapshot &a, const RankSnapshot &b)
{
    return a.chipStore == b.chipStore && a.codeStore == b.codeStore &&
           a.goldenStore == b.goldenStore &&
           a.goldenCode == b.goldenCode && a.poisoned == b.poisoned;
}

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

TEST(ScrubEngineDiff, CleanRankStaysUntouched)
{
    PmRank rank(testBlocks);
    Rng rng(1);
    rank.initialize(rng);
    const auto before = rank.snapshot();

    const auto outcomes = ScrubEngine().sweep(rank);
    ASSERT_EQ(outcomes.size(),
              static_cast<std::size_t>(rank.chips()) *
                  rank.vlewsPerChip());
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.corrections, 0);
        EXPECT_EQ(o.changedBlocks, 0u);
    }
    EXPECT_TRUE(sameMedia(rank.snapshot(), before));
    EXPECT_TRUE(rank.isPristine());

    const auto stats = ScrubEngine::tally(outcomes);
    EXPECT_EQ(stats.wordsScanned, outcomes.size());
    EXPECT_EQ(stats.wordsDirty, 0u);
    EXPECT_EQ(stats.bitsCorrected, 0u);
}

TEST(ScrubEngineDiff, ErrorMixesMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        PmRank rank = messyRank(seed);
        const auto dirty = rank.snapshot();

        const auto batched = ScrubEngine().sweep(rank);
        const auto media_batched = rank.snapshot();

        rank.restore(dirty);
        const auto reference = ScrubEngine().sweepReference(rank);

        ASSERT_EQ(batched.size(), reference.size()) << "seed=" << seed;
        for (std::size_t w = 0; w < batched.size(); ++w)
            EXPECT_EQ(batched[w], reference[w])
                << "seed=" << seed << " word=" << w;
        EXPECT_TRUE(sameMedia(media_batched, rank.snapshot()))
            << "seed=" << seed;

        const auto stats = ScrubEngine::tally(batched);
        EXPECT_GT(stats.wordsDirty, 0u) << "seed=" << seed;
        EXPECT_GT(stats.wordsUncorrectable, 0u) << "seed=" << seed;
    }
}

TEST(ScrubEngineDiff, WorkerCountAndBatchSizeAreByteIdentical)
{
    PmRank rank = messyRank(42);
    const auto dirty = rank.snapshot();

    ThreadPool one(1);
    ThreadPool eight(8);
    std::vector<std::vector<ScrubWordResult>> outcomes;
    std::vector<RankSnapshot> media;
    for (ThreadPool *pool : {&one, &eight}) {
        for (const unsigned batch : {1u, 3u, 64u, 4096u}) {
            ScrubEngine::Options opts;
            opts.pool = pool;
            opts.batchWords = batch;
            rank.restore(dirty);
            outcomes.push_back(ScrubEngine(opts).sweep(rank));
            media.push_back(rank.snapshot());
        }
    }
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i], outcomes[0]) << "config " << i;
        EXPECT_TRUE(sameMedia(media[i], media[0])) << "config " << i;
    }
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
    const auto dirty = rank.snapshot();

    const auto batched = ScrubEngine().sweep(rank);
    const auto media_batched = rank.snapshot();
    rank.restore(dirty);
    const auto reference = ScrubEngine().sweepReference(rank);

    EXPECT_EQ(batched, reference);
    EXPECT_TRUE(sameMedia(media_batched, rank.snapshot()));
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
        DegradedRank rank = messyDegraded(seed);
        const auto dirty = rank.snapshot();

        const auto batched = ScrubEngine().sweep(rank);
        const auto media_batched = rank.snapshot();

        rank.restore(dirty);
        const auto reference = ScrubEngine().sweepReference(rank);

        EXPECT_EQ(batched, reference) << "seed=" << seed;
        const auto after = rank.snapshot();
        EXPECT_EQ(media_batched.store, after.store) << "seed=" << seed;
        EXPECT_EQ(media_batched.codeStore, after.codeStore);

        const auto stats = ScrubEngine::tally(batched);
        EXPECT_GT(stats.wordsUncorrectable, 0u) << "seed=" << seed;

        // The full scrub (engine + poisoning policy) must be
        // deterministic across repeated runs from the same image.
        rank.restore(dirty);
        rank.scrub();
        const auto scrubbed = rank.snapshot();
        EXPECT_TRUE(rank.isPristine());
        rank.restore(dirty);
        rank.scrub();
        EXPECT_EQ(rank.snapshot().store, scrubbed.store);
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
    // it clean/skipped through both paths.
    const auto batched = ScrubEngine().sweep(rank);
    const auto reference = ScrubEngine().sweepReference(rank);
    EXPECT_EQ(batched[0].corrections, 0);
    EXPECT_EQ(batched, reference);
}

} // namespace
} // namespace nvck
