/**
 * @file
 * The Frobenius split test in front of the BCH Chien scan, at the VLEW
 * point (2048, 22) and a small code (64, 2), against the textbook
 * reference decoder (bch_reference.hh):
 *
 *  - dead-chip VLEWs (uniformly random n-bit words) decode exactly as
 *    the reference does, and the shared split test locatorSplits
 *    (gf/gf2m.hh) agrees with an exhaustive
 *    count of the locator's distinct roots over the whole field;
 *  - a locator that splits over GF(2^m) but has a root beyond the
 *    shortened range stays Uncorrectable;
 *  - locators with a repeated root fail the split test;
 *  - words with 0..t+2 injected errors decode exactly as the
 *    reference does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/bch_reference.hh"
#include "gf/binpoly.hh"
#include "gf/gf2m.hh"
#include "gf/gfpoly.hh"

namespace nvck {
namespace {

struct SplitPoint
{
    unsigned k;
    unsigned t;
    /** Leading random words whose locators get the exhaustive
     *  whole-field root count (it costs 2^m evaluations each). */
    unsigned rootChecks;
};

class BchSplit : public ::testing::TestWithParam<SplitPoint> {};

/** decode() and solveFromResidue() must both equal the reference. */
void
expectMatchesReference(const BchCodec &codec, const BitVec &word,
                       const std::string &what)
{
    const BchDecodeResult ref = referenceDecode(codec, word);

    BitVec decoded = word;
    const BchDecodeResult dec = codec.decode(decoded);
    EXPECT_EQ(dec.status, ref.status) << what;
    EXPECT_EQ(dec.corrections, ref.corrections) << what;
    EXPECT_EQ(dec.positions, ref.positions) << what;
    BitVec expected = word;
    for (const std::uint32_t pos : ref.positions)
        expected.flip(pos);
    EXPECT_EQ(decoded, expected) << what;

    BchResidue res;
    codec.residueStart(res);
    codec.residueAbsorbBits(res, word.raw().data(), word.size());
    const BchDecodeResult solved = codec.solveFromResidue(res);
    EXPECT_EQ(solved.status, ref.status) << what;
    EXPECT_EQ(solved.corrections, ref.corrections) << what;
    EXPECT_EQ(solved.positions, ref.positions) << what;
}

/** locatorSplits over a reference polynomial's coefficients. */
bool
splits(const Gf2m &gf, const GfPoly &lambda)
{
    return locatorSplits(gf, lambda.coefficients());
}

/** The product of (1 + root_i * x): a locator with those inverse
 *  roots, distinct or not. */
GfPoly
locatorOf(const Gf2m &gf, const std::vector<GfElem> &roots)
{
    GfPoly out = GfPoly::constant(1);
    for (const GfElem root : roots)
        out = GfPoly::mul(gf, out, GfPoly({1, root}));
    return out;
}

TEST_P(BchSplit, DeadChipWordsMatchReference)
{
    const auto [k, t, root_checks] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0xDEAD + k + t);
    unsigned rejected_by_split = 0;
    for (unsigned w = 0; w < 2000; ++w) {
        BitVec word(codec.n());
        word.randomize(rng);
        const std::string what = "word=" + std::to_string(w);
        expectMatchesReference(codec, word, what);

        unsigned len = 0;
        const GfPoly lambda = referenceLocator(
            codec.field(), referenceSyndromes(codec, word), len);
        const bool split = splits(codec.field(), lambda);
        if (!split)
            ++rejected_by_split;
        if (w < root_checks) {
            const unsigned roots = distinctFieldRoots(codec.field(), lambda);
            EXPECT_EQ(split, roots == static_cast<unsigned>(lambda.degree()))
                << what << " degree=" << lambda.degree()
                << " roots=" << roots;
        }
    }
    // The split test, not the scan, must be what rejects dead-chip
    // words (at the VLEW point: all of them).
    EXPECT_GT(rejected_by_split, 0u);
}

TEST_P(BchSplit, SplitLocatorWithRootBeyondShortenedRange)
{
    // Syndromes of an error pattern of the unshortened code with some
    // positions >= n: the n-bit word with the same remainder mod g has
    // exactly those syndromes, so its locator splits over GF(2^m) but
    // the Chien scan over [0, n) finds too few roots.
    const auto [k, t, root_checks] = GetParam();
    const BchCodec codec(k, t);
    const unsigned n = codec.n();
    const unsigned order = codec.field().order();
    ASSERT_LT(n + t, order);

    for (unsigned beyond = 1; beyond <= t; ++beyond) {
        std::vector<unsigned> positions;
        for (unsigned i = 0; i < beyond; ++i)
            positions.push_back(order - 1 - 3 * i); // all >= n
        for (unsigned i = beyond; i < t; ++i)
            positions.push_back(5 + 7 * i); // in range
        BinPoly pattern;
        for (const unsigned pos : positions)
            pattern.setBit(pos);
        const BinPoly rem =
            BinPoly::mod(pattern, referenceGenerator(codec));
        BitVec word(n);
        for (unsigned i = 0; i < codec.r(); ++i)
            word.set(i, rem.bit(i));

        const std::string what = "beyond=" + std::to_string(beyond);
        unsigned len = 0;
        const GfPoly lambda = referenceLocator(
            codec.field(), referenceSyndromes(codec, word), len);
        ASSERT_EQ(len, t) << what;
        ASSERT_EQ(lambda.degree(), static_cast<int>(t)) << what;
        EXPECT_TRUE(splits(codec.field(), lambda)) << what;

        BitVec decoded = word;
        const BchDecodeResult dec = codec.decode(decoded);
        EXPECT_EQ(dec.status, DecodeStatus::Uncorrectable) << what;
        EXPECT_EQ(decoded, word) << what;
        expectMatchesReference(codec, word, what);
    }
}

TEST_P(BchSplit, RepeatedRootFailsSplitTest)
{
    const auto [k, t, root_checks] = GetParam();
    const BchCodec codec(k, t);
    const Gf2m &gf = codec.field();
    Rng rng(0x5EED + k + t);
    for (unsigned trial = 0; trial < 50; ++trial) {
        // t distinct nonzero inverse roots...
        std::vector<GfElem> roots;
        while (roots.size() < t) {
            const auto root =
                static_cast<GfElem>(1 + rng.below(gf.order()));
            if (std::find(roots.begin(), roots.end(), root) == roots.end())
                roots.push_back(root);
        }
        const GfPoly distinct = locatorOf(gf, roots);
        EXPECT_TRUE(splits(gf, distinct)) << "trial=" << trial;

        // ...and the same product with one root repeated: still every
        // root in the field, but no longer square-free.
        roots.push_back(roots[rng.below(roots.size())]);
        const GfPoly repeated = locatorOf(gf, roots);
        EXPECT_FALSE(splits(gf, repeated)) << "trial=" << trial;
        EXPECT_LT(distinctFieldRoots(gf, repeated),
                  static_cast<unsigned>(repeated.degree()));
    }
    // The smallest case: a squared linear factor.
    EXPECT_FALSE(splits(gf, locatorOf(gf, {3, 3})));
}

TEST_P(BchSplit, InjectedErrorsMatchReference)
{
    const auto [k, t, root_checks] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0xE44 + k + t);
    for (unsigned errors = 0; errors <= t + 2; ++errors) {
        for (unsigned trial = 0; trial < 6; ++trial) {
            BitVec data(k);
            data.randomize(rng);
            const BitVec clean = codec.encode(data);
            BitVec noisy = clean;
            noisy.injectExactErrors(rng, errors);
            const std::string what = "errors=" + std::to_string(errors) +
                                     " trial=" + std::to_string(trial);
            expectMatchesReference(codec, noisy, what);
            if (errors <= t) {
                BitVec decoded = noisy;
                const BchDecodeResult dec = codec.decode(decoded);
                EXPECT_EQ(dec.corrections, errors) << what;
                EXPECT_EQ(decoded, clean) << what;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SplitPoints, BchSplit,
    ::testing::Values(SplitPoint{2048, 22, 100}, SplitPoint{64, 2, 2000}),
    [](const auto &info) {
        return "k" + std::to_string(info.param.k) + "t" +
               std::to_string(info.param.t);
    });

} // namespace
} // namespace nvck
