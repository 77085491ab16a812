/**
 * @file
 * Differential fuzzing of the table-driven codecs against the textbook
 * references built only from their public API (bch_reference.hh,
 * rs_reference.hh): for every BCH/RS parameter point the repo uses,
 * random data with 0..t+2 injected errors must produce the reference's
 * codewords, check-bit deltas, residues, syndromes and decode results,
 * and full-weight random RS words the reference's syndromes. The RS
 * erasure cases (a full erasure, erasures plus errors at the
 * 2 * errors + erasures = r boundary, repeated or check-symbol
 * erasures, and dead-chip words decoded blind) must match the
 * reference decoder field for field.
 * This is the contract that lets the fast codecs run the Monte-Carlo
 * sweeps without perturbing any sampled statistic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/bch_reference.hh"
#include "ecc/rs.hh"
#include "ecc/rs_reference.hh"

namespace nvck {
namespace {

struct BchPoint
{
    unsigned k;
    unsigned t;
};

class KernelDiffBch : public ::testing::TestWithParam<BchPoint> {};

TEST_P(KernelDiffBch, EncodeSyndromesDecodeIdentical)
{
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0xD1FF + k * 31 + t);
    for (unsigned errors = 0; errors <= t + 2; ++errors) {
        BitVec data(k);
        data.randomize(rng);

        const BitVec cw = codec.encode(data);
        ASSERT_EQ(cw, referenceEncode(codec, data))
            << "k=" << k << " t=" << t;
        EXPECT_EQ(codec.encodeDelta(data), referenceResidue(codec, data));
        EXPECT_EQ(codec.extractData(cw), data);

        BitVec noisy = cw;
        noisy.injectExactErrors(rng, errors);
        const BitVec residue = referenceResidue(codec, noisy);
        EXPECT_EQ(codec.isCodeword(noisy), residue.popcount() == 0)
            << "errors=" << errors;

        BchResidue state;
        codec.residueStart(state);
        codec.residueAbsorbBits(state, noisy.raw().data(), noisy.size());
        EXPECT_EQ(state.rem, residue.raw()) << "errors=" << errors;
        std::vector<GfElem> syn(2 * t);
        codec.syndromesFromResidue(state, syn);
        EXPECT_EQ(syn, referenceSyndromes(codec, noisy))
            << "errors=" << errors;

        const BchDecodeResult ref = referenceDecode(codec, noisy);
        BitVec decoded = noisy;
        const BchDecodeResult res = codec.decode(decoded);
        EXPECT_EQ(res.status, ref.status) << "errors=" << errors;
        EXPECT_EQ(res.corrections, ref.corrections);
        EXPECT_EQ(res.positions, ref.positions);
        BitVec expected = noisy;
        for (const std::uint32_t pos : ref.positions)
            expected.flip(pos);
        EXPECT_EQ(decoded, expected) << "errors=" << errors;

        BitVec reencoded = noisy;
        codec.reencode(reencoded);
        EXPECT_EQ(reencoded,
                  referenceEncode(codec, codec.extractData(noisy)));
    }
}

TEST_P(KernelDiffBch, SyndromesMaskOversizedTail)
{
    // Bits at positions >= n() of an over-long received vector must be
    // ignored, not folded into the syndromes (and not truncated a whole
    // word early): the residue pass reads exactly the n bits it is
    // given from raw storage that runs on past them.
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0x7A11 + k + t);

    BitVec data(k);
    data.randomize(rng);
    BitVec noisy = codec.encode(data);
    noisy.injectExactErrors(rng, std::min(t, 2u));
    const auto clean = referenceSyndromes(codec, noisy);

    BitVec oversized(noisy.size() + 67);
    oversized.copyRange(0, noisy, 0, noisy.size());
    for (std::size_t i = noisy.size(); i < oversized.size(); ++i)
        oversized.set(i, true); // garbage beyond n()
    EXPECT_EQ(referenceSyndromes(codec, oversized), clean);

    BchResidue state;
    codec.residueStart(state);
    codec.residueAbsorbBits(state, oversized.raw().data(), codec.n());
    EXPECT_EQ(state.rem, referenceResidue(codec, noisy).raw());
    std::vector<GfElem> syn(2 * t);
    codec.syndromesFromResidue(state, syn);
    EXPECT_EQ(syn, clean);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodePoints, KernelDiffBch,
    ::testing::Values(BchPoint{8, 1}, // r = 4: the bit-serial LFSR path
                      BchPoint{64, 2}, BchPoint{128, 3},
                      BchPoint{512, 5}, BchPoint{512, 8},
                      BchPoint{512, 14}, BchPoint{2048, 22}),
    [](const auto &info) {
        return "k" + std::to_string(info.param.k) + "t" +
               std::to_string(info.param.t);
    });

struct RsPoint
{
    unsigned k;
    unsigned r;
    unsigned m;
};

class KernelDiffRs : public ::testing::TestWithParam<RsPoint> {};

std::vector<GfElem>
randomSymbols(Rng &rng, const RsCodec &codec)
{
    std::vector<GfElem> data(codec.k());
    for (auto &s : data)
        s = static_cast<GfElem>(rng.next() & (codec.field().size() - 1));
    return data;
}

/** XOR a random nonzero value into symbol @p pos. */
void
corruptSymbol(Rng &rng, const RsCodec &codec, std::vector<GfElem> &word,
              std::size_t pos)
{
    word[pos] ^=
        static_cast<GfElem>((rng.next() % (codec.field().size() - 1)) + 1);
}

/**
 * Check a decode of @p noisy (sent as @p sent) against the reference:
 * a correctable pattern must come back as the sent codeword; any other
 * outcome must be either an unchanged Uncorrectable word or a
 * reference codeword (a miscorrection), never a non-codeword.
 */
void
expectDecodeAgainstReference(const RsCodec &codec,
                             const std::vector<GfElem> &sent,
                             const std::vector<GfElem> &noisy,
                             const RsDecodeResult &res,
                             const std::vector<GfElem> &decoded,
                             bool correctable)
{
    const auto zero = [](const std::vector<GfElem> &syn) {
        return std::all_of(syn.begin(), syn.end(),
                           [](GfElem s) { return s == 0; });
    };
    if (correctable) {
        EXPECT_NE(res.status, DecodeStatus::Uncorrectable);
        EXPECT_EQ(decoded, sent);
        unsigned differing = 0;
        for (std::size_t i = 0; i < sent.size(); ++i)
            differing += noisy[i] != sent[i] ? 1 : 0;
        EXPECT_EQ(res.corrections, differing);
        return;
    }
    if (res.status == DecodeStatus::Uncorrectable)
        EXPECT_EQ(decoded, noisy);
    else
        EXPECT_TRUE(zero(referenceRsSyndromes(codec, decoded)));
}

/** codec.decode() of @p noisy must equal referenceRsDecode field for
 *  field, the decoded word included. */
void
expectMatchesReferenceDecode(const RsCodec &codec,
                             const std::vector<GfElem> &noisy,
                             const std::vector<std::uint32_t> &erasures,
                             int max_errors = -1)
{
    const ReferenceRsDecode ref =
        referenceRsDecode(codec, noisy, erasures, max_errors);
    auto decoded = noisy;
    const RsDecodeResult res = codec.decode(decoded, erasures, max_errors);
    EXPECT_EQ(res.status, ref.status);
    EXPECT_EQ(res.corrections, ref.corrections);
    EXPECT_EQ(res.errorCorrections, ref.errorCorrections);
    EXPECT_EQ(std::vector<std::uint32_t>(res.positions.begin(),
                                         res.positions.end()),
              ref.positions);
    EXPECT_EQ(decoded, ref.word);
}

/** The n positions in a random order. */
std::vector<std::uint32_t>
shuffledPositions(Rng &rng, const RsCodec &codec)
{
    std::vector<std::uint32_t> positions(codec.n());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = positions.size(); i > 1; --i)
        std::swap(positions[i - 1], positions[rng.next() % i]);
    return positions;
}

TEST_P(KernelDiffRs, EncodeSyndromesDecodeIdentical)
{
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    const unsigned t = codec.t();
    Rng rng(0xA5A5 + k * 17 + r + m);

    for (unsigned errors = 0; errors <= t + 2; ++errors) {
        const auto data = randomSymbols(rng, codec);
        const auto cw = codec.encode(data);
        ASSERT_EQ(cw, referenceRsEncode(codec, data)) << "m=" << m;
        EXPECT_EQ(codec.extractData(cw), data);

        auto noisy = cw;
        for (unsigned e = 0; e < errors; ++e)
            corruptSymbol(rng, codec, noisy, rng.next() % noisy.size());
        const auto syn = referenceRsSyndromes(codec, noisy);
        EXPECT_EQ(codec.syndromes(noisy), syn) << "errors=" << errors;
        EXPECT_EQ(codec.isCodeword(noisy),
                  std::all_of(syn.begin(), syn.end(),
                              [](GfElem s) { return s == 0; }));

        auto decoded = noisy;
        const auto res = codec.decode(decoded);
        expectDecodeAgainstReference(codec, cw, noisy, res, decoded,
                                     errors <= t);

        auto reencoded = noisy;
        codec.reencode(reencoded);
        EXPECT_EQ(reencoded,
                  referenceRsEncode(codec, codec.extractData(noisy)));
    }
}

TEST_P(KernelDiffRs, RandomWordsSyndromesIdentical)
{
    // Full-weight random words, far outside any decoding sphere: the
    // syndromes (taken from the remainder, which they determine
    // uniquely) and the codeword verdict must match the reference for
    // every lane of the remainder register.
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0x7E3A + k * 31 + r * 7 + m);
    const auto zero = [](const std::vector<GfElem> &syn) {
        return std::all_of(syn.begin(), syn.end(),
                           [](GfElem s) { return s == 0; });
    };

    for (int trial = 0; trial < 64; ++trial) {
        std::vector<GfElem> word(codec.n());
        for (auto &s : word)
            s = static_cast<GfElem>(rng.next() &
                                    (codec.field().size() - 1));
        const auto syn = referenceRsSyndromes(codec, word);
        ASSERT_EQ(codec.syndromes(word), syn) << "trial " << trial;
        EXPECT_EQ(codec.isCodeword(word), zero(syn));

        auto decoded = word;
        const auto res = codec.decode(decoded);
        expectDecodeAgainstReference(codec, word, word, res, decoded,
                                     false);
    }

    // One nonzero symbol at any position of a codeword.
    const auto cw = referenceRsEncode(codec, randomSymbols(rng, codec));
    for (std::size_t pos = 0; pos < cw.size(); ++pos) {
        auto one = cw;
        corruptSymbol(rng, codec, one, pos);
        EXPECT_EQ(codec.syndromes(one), referenceRsSyndromes(codec, one))
            << "pos " << pos;
        EXPECT_FALSE(codec.isCodeword(one)) << "pos " << pos;
    }
}

TEST_P(KernelDiffRs, ErasureDecodesIdentical)
{
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0xE8A5 + k + r + m);

    // Mixes with 2*errors + erasures up to r + 2 (including an
    // uncorrectable overload case).
    for (unsigned erasures = 1; erasures <= r; erasures += 3) {
        for (unsigned errors = 0;
             2 * errors + erasures <= r + 2; ++errors) {
            const auto sent =
                referenceRsEncode(codec, randomSymbols(rng, codec));
            auto noisy = sent;
            const auto positions = shuffledPositions(rng, codec);
            std::vector<std::uint32_t> erased(
                positions.begin(), positions.begin() + erasures);
            for (unsigned e = 0; e < erasures + errors; ++e)
                corruptSymbol(rng, codec, noisy, positions[e]);

            auto decoded = noisy;
            const auto res = codec.decode(decoded, erased);
            SCOPED_TRACE(::testing::Message()
                         << "erasures=" << erasures
                         << " errors=" << errors);
            expectDecodeAgainstReference(codec, sent, noisy, res, decoded,
                                         2 * errors + erasures <= r);
            expectMatchesReferenceDecode(codec, noisy, erased);
        }
    }
}

TEST_P(KernelDiffRs, FullErasureMatchesReference)
{
    // r erasures: no degree of freedom is left for Berlekamp-Massey, so
    // the locator is the erasure locator and the fill is pure Forney.
    // Some erased symbols keep their sent value (zero magnitude).
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0xF0E + k + r + m);
    for (int trial = 0; trial < 32; ++trial) {
        const auto sent =
            referenceRsEncode(codec, randomSymbols(rng, codec));
        const auto order = shuffledPositions(rng, codec);
        const std::vector<std::uint32_t> erased(order.begin(),
                                                order.begin() + r);
        auto noisy = sent;
        for (const std::uint32_t pos : erased)
            if (rng.next() % 4 != 0)
                corruptSymbol(rng, codec, noisy, pos);
        SCOPED_TRACE(::testing::Message() << "trial=" << trial);
        expectMatchesReferenceDecode(codec, noisy, erased);
        auto decoded = noisy;
        const auto res = codec.decode(decoded, erased);
        if (noisy != sent) {
            EXPECT_EQ(res.status, DecodeStatus::Corrected);
            EXPECT_EQ(res.errorCorrections, 0u);
        }
        EXPECT_EQ(decoded, sent);
    }
}

TEST_P(KernelDiffRs, ErasuresAndErrorsAtBoundaryMatchReference)
{
    // Every split of the budget with 2 * errors + erasures = r (r - 1
    // for odd r), decoded with no error cap and with a cap one short.
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0xB0D + k + r + m);
    for (unsigned errors = 0; 2 * errors <= r; ++errors) {
        const unsigned erasures = r - 2 * errors - (r % 2);
        for (int trial = 0; trial < 8; ++trial) {
            const auto sent =
                referenceRsEncode(codec, randomSymbols(rng, codec));
            const auto order = shuffledPositions(rng, codec);
            const std::vector<std::uint32_t> erased(
                order.begin(), order.begin() + erasures);
            auto noisy = sent;
            for (unsigned i = 0; i < erasures + errors; ++i)
                corruptSymbol(rng, codec, noisy, order[i]);
            SCOPED_TRACE(::testing::Message()
                         << "errors=" << errors << " erasures="
                         << erasures << " trial=" << trial);
            expectMatchesReferenceDecode(codec, noisy, erased);
            auto decoded = noisy;
            const auto res = codec.decode(decoded, erased);
            EXPECT_EQ(res.status, DecodeStatus::Corrected);
            EXPECT_EQ(res.errorCorrections, errors);
            EXPECT_EQ(decoded, sent);
            if (errors > 0) {
                expectMatchesReferenceDecode(
                    codec, noisy, erased, static_cast<int>(errors) - 1);
                auto capped = noisy;
                EXPECT_EQ(codec.decode(capped, erased,
                                       static_cast<int>(errors) - 1)
                              .status,
                          DecodeStatus::Uncorrectable);
                EXPECT_EQ(capped, noisy);
            }
        }
    }
}

TEST_P(KernelDiffRs, DuplicateErasuresMatchReference)
{
    // A repeated erasure position squares a factor of the locator: a
    // dirty word is Uncorrectable and left as it was, a clean one
    // stays Clean.
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0xD0B + k + r + m);
    for (unsigned erasures = 2; erasures <= r; ++erasures) {
        const auto sent =
            referenceRsEncode(codec, randomSymbols(rng, codec));
        const auto order = shuffledPositions(rng, codec);
        std::vector<std::uint32_t> erased(order.begin(),
                                          order.begin() + erasures - 1);
        erased.push_back(erased[rng.next() % erased.size()]);
        SCOPED_TRACE(::testing::Message() << "erasures=" << erasures);
        expectMatchesReferenceDecode(codec, sent, erased);
        auto clean = sent;
        EXPECT_EQ(codec.decode(clean, erased).status, DecodeStatus::Clean);

        auto noisy = sent;
        corruptSymbol(rng, codec, noisy, erased.front());
        expectMatchesReferenceDecode(codec, noisy, erased);
        auto decoded = noisy;
        EXPECT_EQ(codec.decode(decoded, erased).status,
                  DecodeStatus::Uncorrectable);
        EXPECT_EQ(decoded, noisy);
    }
}

TEST_P(KernelDiffRs, CheckSymbolErasuresMatchReference)
{
    // Erasures confined to the check symbols [0, r) (the parity chip's
    // beat), alone and with the errors the remaining budget allows.
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0xC4E + k + r + m);
    for (unsigned erasures = 1; erasures <= r; ++erasures) {
        const auto sent =
            referenceRsEncode(codec, randomSymbols(rng, codec));
        std::vector<std::uint32_t> erased;
        for (std::uint32_t pos = 0; erased.size() < erasures; ++pos)
            erased.push_back(pos);
        auto noisy = sent;
        for (const std::uint32_t pos : erased)
            corruptSymbol(rng, codec, noisy, pos);
        const unsigned errors = (r - erasures) / 2;
        for (unsigned i = 0; i < errors; ++i)
            corruptSymbol(rng, codec, noisy, r + i * (k / (errors + 1)));
        SCOPED_TRACE(::testing::Message() << "erasures=" << erasures);
        expectMatchesReferenceDecode(codec, noisy, erased);
        auto decoded = noisy;
        EXPECT_EQ(codec.decode(decoded, erased).status,
                  DecodeStatus::Corrected);
        EXPECT_EQ(decoded, sent);
    }
}

TEST_P(KernelDiffRs, BlindDeadChipMatchesReference)
{
    // A dead chip's beat (r consecutive symbols, aligned, replaced by
    // random ones) decoded with no erasure hint, as a runtime read's
    // first RS pass sees it: the reference's verdict every time,
    // whether the locator is rejected by the split test, by the Chien
    // scan or by Forney, or the word miscorrects to a codeword.
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    Rng rng(0xDEADC + k + r + m);
    unsigned uncorrectable = 0;
    for (int trial = 0; trial < 200; ++trial) {
        auto noisy = referenceRsEncode(codec, randomSymbols(rng, codec));
        const unsigned first =
            static_cast<unsigned>(rng.next() % (codec.n() / r)) * r;
        for (unsigned s = first; s < first + r; ++s)
            noisy[s] = static_cast<GfElem>(rng.next() &
                                           (codec.field().size() - 1));
        SCOPED_TRACE(::testing::Message() << "trial=" << trial);
        expectMatchesReferenceDecode(codec, noisy, {});
        expectMatchesReferenceDecode(codec, noisy, {}, 2);
        auto decoded = noisy;
        if (codec.decode(decoded).status == DecodeStatus::Uncorrectable)
            ++uncorrectable;
    }
    EXPECT_GT(uncorrectable, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodePoints, KernelDiffRs,
    ::testing::Values(
        RsPoint{64, 8, 8},  // the paper's RS(72,64) over GF(2^8)
        RsPoint{64, 8, 12}, // wide field: exercises the log/exp path
        RsPoint{16, 6, 8},  // odd r: erasure/error mixes with r odd
        // Remainder-register widths: 16 symbols in two 64-bit words;
        // 16-bit lanes on the table side of the m <= 10 gate (k64r8m12
        // is the other side); four words; eight words, six used.
        RsPoint{64, 16, 8}, RsPoint{64, 8, 10}, RsPoint{32, 32, 8},
        RsPoint{40, 24, 12}),
    [](const auto &info) {
        return "k" + std::to_string(info.param.k) + "r" +
               std::to_string(info.param.r) + "m" +
               std::to_string(info.param.m);
    });

} // namespace
} // namespace nvck
