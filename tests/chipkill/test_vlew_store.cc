/**
 * @file
 * Pins for the one VLEW media owner (chipkill/vlew_store.hh).
 *
 * Seeded random mutation sequences — full and torn writes, code-only
 * drains, injected flips, stuck cells, poison/zero, rebuild +
 * reencode, snapshot/restore — run on a VlewStore and on an
 * independent model (plain byte arrays, whole-word BchCodec::encode).
 * After every step the store's const view must equal the model; after
 * every sequence each word's in-place scrub must match the
 * word-at-a-time reference (scrub_reference.hh) in outcome and
 * post-scrub media. Runs at the paper's VLEW point and at one small
 * code with several beats per word.
 *
 * The verdict memo is pinned the same way: sequences of every public
 * mutator, with every word scrubbed twice after each step, must give
 * the reference outcome and post-scrub bits on every scrub, memo hit
 * or not; and the memo never takes part in equality.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "chipkill/scrub.hh"
#include "chipkill/scrub_reference.hh"
#include "chipkill/vlew_store.hh"
#include "common/bitvec.hh"
#include "common/rng.hh"
#include "ecc/bch.hh"

namespace nvck {
namespace {

struct StorePoint
{
    const char *name;
    unsigned k;     //!< data bits per word
    unsigned t;     //!< correction strength
    unsigned beat;  //!< bytes per beat
    unsigned words; //!< words in the store
    unsigned seqs;  //!< random sequences to run
};

/** Print the point by name, so test names stay stable run to run. */
void
PrintTo(const StorePoint &p, std::ostream *os)
{
    *os << p.name;
}

/** Independent model of a VlewStore's contents. */
struct Model
{
    Model(const BchCodec &c, std::size_t num_words, unsigned beat_bytes)
        : codec(&c), words(num_words), span(c.k() / 8), beat(beat_bytes),
          data(num_words * span, 0), gold(data), mask(data), val(data),
          code(num_words, BitVec(c.r())), goldCode(code)
    {}

    /** Check bits of @p n bytes placed at byte @p offset of a span. */
    BitVec
    check(const std::uint8_t *bytes, std::size_t offset,
          std::size_t n) const
    {
        BitVec d(codec->k());
        d.setBytes(offset * 8, bytes, n);
        const BitVec cw = codec->encode(d);
        BitVec c(codec->r());
        c.copyRange(0, cw, 0, codec->r());
        return c;
    }

    void
    stick(std::size_t lo, std::size_t hi)
    {
        for (std::size_t i = lo; i < hi; ++i)
            data[i] = static_cast<std::uint8_t>((data[i] & ~mask[i]) |
                                                (val[i] & mask[i]));
    }

    void
    applyDelta(std::size_t b, const std::uint8_t *d, unsigned landed)
    {
        const std::size_t lo = b * beat;
        if (landed & VlewStore::Data) {
            for (unsigned i = 0; i < beat; ++i)
                data[lo + i] ^= d[i];
            stick(lo, lo + beat);
        }
        if (landed & VlewStore::Golden)
            for (unsigned i = 0; i < beat; ++i)
                gold[lo + i] ^= d[i];
        const BitVec cd = check(d, lo % span, beat);
        if (landed & VlewStore::Code)
            code[lo / span] ^= cd;
        if (landed & VlewStore::Golden)
            goldCode[lo / span] ^= cd;
    }

    void
    reencode(std::size_t w, unsigned parts)
    {
        if (parts & VlewStore::Code)
            code[w] = check(&data[w * span], 0, span);
        if (parts & VlewStore::Golden)
            goldCode[w] = check(&gold[w * span], 0, span);
    }

    BitVec
    codeword(std::size_t w) const
    {
        BitVec cw(codec->n());
        cw.copyRange(0, code[w], 0, codec->r());
        cw.setBytes(codec->r(), &data[w * span], span);
        return cw;
    }

    /** Take over a scrubbed word's stored bits. */
    void
    take(std::size_t w, const BitVec &cw)
    {
        code[w].copyRange(0, cw, 0, codec->r());
        cw.getBytes(codec->r(), &data[w * span], span);
    }

    /** Flip with probability @p rber: data bits in byte order, then
     *  code bits word by word. */
    void
    injectErrors(Rng &rng, double rber)
    {
        const std::uint64_t data_bits = data.size() * 8;
        const std::uint64_t total = data_bits + words * codec->r();
        std::uint64_t pos = 0;
        for (;;) {
            pos += rng.geometric(rber);
            if (pos > total)
                break;
            const std::uint64_t idx = pos - 1;
            if (idx < data_bits) {
                data[idx / 8] ^=
                    static_cast<std::uint8_t>(1u << (idx % 8));
            } else {
                const std::uint64_t c = idx - data_bits;
                code[c / codec->r()].flip(c % codec->r());
            }
        }
    }

    bool
    pristine() const
    {
        return data == gold && code == goldCode;
    }

    const BchCodec *codec;
    std::size_t words;
    unsigned span;
    unsigned beat;
    std::vector<std::uint8_t> data, gold, mask, val;
    std::vector<BitVec> code, goldCode;
};

/** The store's whole const view equals the model. */
void
expectMatches(const VlewStore &s, const Model &m)
{
    ASSERT_EQ(s.words(), m.words);
    const std::size_t beats = s.words() * s.beatsPerWord();
    for (std::size_t b = 0; b < beats; ++b) {
        ASSERT_EQ(std::memcmp(s.beat(b), &m.data[b * m.beat], m.beat), 0)
            << "data beat " << b;
        ASSERT_EQ(
            std::memcmp(s.goldenBeat(b), &m.gold[b * m.beat], m.beat), 0)
            << "golden beat " << b;
    }
    for (std::size_t w = 0; w < s.words(); ++w) {
        ASSERT_TRUE(s.codeword(w) == m.codeword(w)) << "word " << w;
        ASSERT_EQ(std::memcmp(s.stuckMask(w), &m.mask[w * m.span], m.span),
                  0);
        ASSERT_EQ(std::memcmp(s.stuckValue(w), &m.val[w * m.span], m.span),
                  0);
    }
    ASSERT_EQ(s.isPristine(), m.pristine());
}

/** Scrub every word in place; each must match the reference. */
void
expectScrubMatchesReference(VlewStore &s, Model &m)
{
    const ScrubReference ref = scrubReference(s);
    for (std::size_t w = 0; w < s.words(); ++w) {
        EXPECT_EQ(s.scrubWord(w), ref.outcomes[w]) << "word " << w;
        EXPECT_TRUE(s.codeword(w) == ref.codewords[w]) << "word " << w;
        m.take(w, ref.codewords[w]);
    }
    expectMatches(s, m);
}

class VlewStoreSequences : public ::testing::TestWithParam<StorePoint>
{
  protected:
    void
    SetUp() override
    {
        const auto &p = GetParam();
        codec = std::make_shared<const BchCodec>(p.k, p.t);
    }

    std::shared_ptr<const BchCodec> codec;
};

TEST_P(VlewStoreSequences, MatchModelAndScrubReference)
{
    const auto &p = GetParam();
    const unsigned span = p.k / 8;
    const std::size_t beats =
        static_cast<std::size_t>(p.words) * (span / p.beat);

    for (unsigned seq = 0; seq < p.seqs; ++seq) {
        SCOPED_TRACE("sequence " + std::to_string(seq));
        Rng rng(0x57E0 + 977 * seq + p.k);
        VlewStore s(codec, p.words, p.beat);
        Model m(*codec, p.words, p.beat);

        // Random golden image, encoded and loaded into the media.
        std::vector<std::uint8_t> buf(p.beat);
        for (std::size_t b = 0; b < beats; ++b) {
            for (auto &byte : buf)
                byte = static_cast<std::uint8_t>(rng.next());
            s.setBeat(b, buf.data(), VlewStore::Golden);
            std::memcpy(&m.gold[b * p.beat], buf.data(), p.beat);
        }
        s.loadGolden();
        for (std::size_t w = 0; w < p.words; ++w)
            m.reencode(w, VlewStore::Golden);
        m.data = m.gold;
        m.code = m.goldCode;
        expectMatches(s, m);

        VlewStore saved = s;
        Model saved_model = m;
        for (unsigned step = 0; step < 60; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const std::size_t b = rng.below(beats);
            const std::size_t w = rng.below(p.words);
            for (auto &byte : buf)
                byte = static_cast<std::uint8_t>(rng.next());
            switch (rng.below(12)) {
              case 0: // full write of a new value
              case 1: {
                for (unsigned i = 0; i < p.beat; ++i)
                    buf[i] ^= m.gold[b * p.beat + i];
                const unsigned all = VlewStore::Data | VlewStore::Code |
                                     VlewStore::Golden;
                s.applyDelta(b, buf.data(), all);
                m.applyDelta(b, buf.data(), all);
                break;
              }
              case 2: { // torn write: intent tracked, parts landed
                const unsigned landed =
                    VlewStore::Golden |
                    static_cast<unsigned>(rng.below(4));
                s.applyDelta(b, buf.data(), landed);
                m.applyDelta(b, buf.data(), landed);
                break;
              }
              case 3: // code-only drain
                s.applyDelta(b, buf.data(), VlewStore::Code);
                m.applyDelta(b, buf.data(), VlewStore::Code);
                break;
              case 4: { // injected flips
                Rng twin = rng;
                s.injectErrors(rng, 2.0 / (span * 8.0));
                m.injectErrors(twin, 2.0 / (span * 8.0));
                break;
              }
              case 5: { // targeted corruption
                const unsigned byte =
                    static_cast<unsigned>(rng.below(p.beat));
                const auto flip =
                    static_cast<std::uint8_t>(1u << rng.below(8));
                s.corruptByte(b, byte, flip);
                m.data[b * p.beat + byte] ^= flip;
                break;
              }
              case 6: { // stuck cell, often disagreeing with the data
                const std::size_t byte = rng.below(m.data.size());
                const auto bit = static_cast<unsigned>(rng.below(8));
                const bool value = rng.chance(0.5);
                s.setStuckBit(byte, bit, value);
                const auto bm = static_cast<std::uint8_t>(1u << bit);
                m.mask[byte] |= bm;
                m.val[byte] = static_cast<std::uint8_t>(
                    value ? m.val[byte] | bm : m.val[byte] & ~bm);
                m.stick(byte, byte + 1);
                break;
              }
              case 7: { // device replaced: stuck cells cleared
                const std::size_t count = 1 + rng.below(p.words - w);
                s.clearStuck(w, count);
                std::fill_n(m.mask.begin() + w * span, count * span, 0);
                std::fill_n(m.val.begin() + w * span, count * span, 0);
                break;
              }
              case 8: { // poison / zero
                const unsigned parts =
                    rng.chance(0.5)
                        ? VlewStore::Data | VlewStore::Code
                        : VlewStore::Data | VlewStore::Code |
                              VlewStore::Golden;
                s.zeroWord(w, parts);
                std::fill_n(m.data.begin() + w * span, span, 0);
                m.code[w].clear();
                if (parts & VlewStore::Golden) {
                    std::fill_n(m.gold.begin() + w * span, span, 0);
                    m.goldCode[w].clear();
                }
                break;
              }
              case 9: { // rebuild a beat, then re-encode its word
                s.setBeat(b, buf.data(), VlewStore::Data);
                std::memcpy(&m.data[b * p.beat], buf.data(), p.beat);
                const std::size_t rw = b / (span / p.beat);
                s.reencode(rw);
                m.reencode(rw, VlewStore::Code);
                const BitVec cw = s.codeword(rw);
                BitVec data(codec->k());
                data.copyRange(0, cw, codec->r(), codec->k());
                BitVec stored(codec->r());
                stored.copyRange(0, cw, 0, codec->r());
                EXPECT_TRUE(stored == codec->encodeDelta(data));
                break;
              }
              case 10: // snapshot / restore
                if (rng.chance(0.5)) {
                    saved = s;
                    saved_model = m;
                } else {
                    s = saved;
                    m = saved_model;
                }
                break;
              case 11: { // one word scrubbed mid-sequence
                const ScrubReference ref = scrubReference(s);
                EXPECT_EQ(s.scrubWord(w), ref.outcomes[w]);
                EXPECT_TRUE(s.codeword(w) == ref.codewords[w]);
                m.take(w, ref.codewords[w]);
                break;
              }
            }
            expectMatches(s, m);
            if (HasFatalFailure())
                return;
        }
        expectScrubMatchesReference(s, m);

        // The batched engine agrees with the per-word scrub on the
        // restored checkpoint, too.
        VlewStore batched = saved;
        const auto ref = scrubReference(saved);
        EXPECT_EQ(ScrubEngine().sweep(batched), ref.outcomes);
        EXPECT_TRUE(matchesReference(batched, ref));
    }
}

TEST_P(VlewStoreSequences, MemoizedScrubsMatchReference)
{
    const auto &p = GetParam();
    const unsigned span = p.k / 8;
    const std::size_t beats =
        static_cast<std::size_t>(p.words) * (span / p.beat);

    /** Scrub every word; each must equal the reference on the bits
     *  it saw. The second pass sees only memoized or re-proven
     *  words. */
    const auto scrubAll = [](VlewStore &s) {
        for (unsigned pass = 0; pass < 2; ++pass) {
            const ScrubReference ref = scrubReference(s);
            for (std::size_t w = 0; w < s.words(); ++w) {
                ASSERT_EQ(s.scrubWord(w), ref.outcomes[w])
                    << "pass " << pass << " word " << w;
                ASSERT_TRUE(s.codeword(w) == ref.codewords[w])
                    << "pass " << pass << " word " << w;
            }
        }
    };

    for (unsigned seq = 0; seq < p.seqs / 4; ++seq) {
        SCOPED_TRACE("sequence " + std::to_string(seq));
        Rng rng(0x3E30 + 131 * seq + p.k);
        VlewStore s(codec, p.words, p.beat);
        s.randomize(0, p.words, rng);
        s.adoptMedia();
        s.loadGolden();
        VlewStore saved = s;
        std::vector<std::uint8_t> buf(p.beat);
        for (unsigned step = 0; step < 60; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            scrubAll(s);
            if (HasFatalFailure())
                return;
            const std::size_t b = rng.below(beats);
            const std::size_t w = rng.below(p.words);
            const std::size_t count = 1 + rng.below(p.words - w);
            for (auto &byte : buf)
                byte = static_cast<std::uint8_t>(rng.next());
            // Mostly single-byte deltas, so words move between clean,
            // correctable and uncorrectable.
            if (rng.chance(0.75))
                for (unsigned i = 0; i < p.beat; ++i)
                    buf[i] = i == 0 ? static_cast<std::uint8_t>(
                                          1u << rng.below(8))
                                    : 0;
            switch (rng.below(13)) {
              case 0: // every Part combination, Golden-only included
              case 1:
                s.applyDelta(b, buf.data(),
                             static_cast<unsigned>(rng.below(8)));
                break;
              case 2:
                s.setBeat(b, buf.data(),
                          rng.chance(0.5) ? VlewStore::Data
                                          : VlewStore::Golden);
                break;
              case 3:
                s.zeroWord(w, static_cast<unsigned>(rng.below(8)));
                break;
              case 4:
                s.reencode(w, static_cast<unsigned>(rng.below(8)));
                break;
              case 5:
                s.corruptByte(b,
                              static_cast<unsigned>(rng.below(p.beat)),
                              static_cast<std::uint8_t>(
                                  1u << rng.below(8)));
                break;
              case 6:
                s.injectErrors(rng, 2.0 / (span * 8.0));
                break;
              case 7:
                s.randomize(w, 1, rng);
                break;
              case 8:
                s.setStuckBit(rng.below(p.words * span),
                              static_cast<unsigned>(rng.below(8)),
                              rng.chance(0.5));
                break;
              case 9:
                s.clearStuck(w, count);
                break;
              case 10:
                if (rng.chance(0.5))
                    s.loadGolden();
                else
                    s.adoptMedia();
                break;
              case 11: // snapshot / restore carry the memo
              case 12:
                if (rng.chance(0.5))
                    saved = s;
                else
                    s = saved;
                break;
            }
        }
        scrubAll(s);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Points, VlewStoreSequences,
    ::testing::Values(StorePoint{"vlew", 2048, 22, 8, 6, 24},
                      StorePoint{"small", 128, 3, 4, 12, 120}),
    [](const auto &info) { return std::string(info.param.name); });

std::shared_ptr<const BchCodec>
vlewCodec()
{
    return std::make_shared<const BchCodec>(2048, 22);
}

TEST(VlewStore, ReencodeMakesEveryWordACodeword)
{
    const auto codec = vlewCodec();
    VlewStore s(codec, 5, 8);
    Rng rng(7);
    s.randomize(0, s.words(), rng);
    ASSERT_FALSE(s.isPristine());
    // Golden := the garbled data; then re-encode both sides.
    for (std::size_t b = 0; b < s.words() * s.beatsPerWord(); ++b)
        s.setBeat(b, s.beat(b), VlewStore::Golden);
    for (std::size_t w = 0; w < s.words(); ++w) {
        s.reencode(w, VlewStore::Code | VlewStore::Golden);
        const BitVec cw = s.codeword(w);
        BitVec data(codec->k());
        data.copyRange(0, cw, codec->r(), codec->k());
        BitVec stored(codec->r());
        stored.copyRange(0, cw, 0, codec->r());
        EXPECT_TRUE(stored == codec->encodeDelta(data)) << w;
        EXPECT_TRUE(codec->isCodeword(cw)) << w;
    }
    EXPECT_TRUE(s.isPristine());
}

TEST(VlewStore, GoldenTracksWriteIntent)
{
    const auto codec = vlewCodec();
    VlewStore s(codec, 4, 8);
    Rng rng(11);
    s.randomize(0, s.words(), rng);
    s.adoptMedia();
    for (std::size_t w = 0; w < s.words(); ++w)
        s.reencode(w, VlewStore::Code | VlewStore::Golden);
    ASSERT_TRUE(s.isPristine());

    std::uint8_t delta[8];
    for (unsigned i = 0; i < 32; ++i) {
        for (auto &byte : delta)
            byte = static_cast<std::uint8_t>(rng.next());
        const std::size_t b = rng.below(s.words() * s.beatsPerWord());
        // A completed write keeps media and intent in lockstep.
        s.applyDelta(b, delta,
                     VlewStore::Data | VlewStore::Code |
                         VlewStore::Golden);
        EXPECT_TRUE(s.isPristine()) << i;
        // A burst whose code delta has not drained yet...
        s.applyDelta(b, delta, VlewStore::Data | VlewStore::Golden);
        EXPECT_FALSE(s.isPristine()) << i;
        // ...is settled by the drain of the same delta.
        s.applyDelta(b, delta, VlewStore::Code);
        EXPECT_TRUE(s.isPristine()) << i;
        // Intent alone is not media.
        s.applyDelta(b, delta, VlewStore::Golden);
        EXPECT_FALSE(s.isPristine()) << i;
        s.applyDelta(b, delta, VlewStore::Data | VlewStore::Code);
        EXPECT_TRUE(s.isPristine()) << i;
    }
}

TEST(VlewStore, CopiesAreIndependentAndShareOnlyTheCodec)
{
    const auto codec = vlewCodec();
    VlewStore a(codec, 3, 8);
    Rng rng(3);
    a.randomize(0, a.words(), rng);
    const VlewStore b = a;
    EXPECT_TRUE(a == b);
    a.corruptByte(5, 1, 0x10);
    EXPECT_FALSE(a == b);
    a.corruptByte(5, 1, 0x10);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(&a.codec(), &b.codec());

    // The codec is not part of the image: an equal codec instance
    // compares equal.
    VlewStore c(vlewCodec(), 3, 8);
    VlewStore d(vlewCodec(), 3, 8);
    EXPECT_TRUE(c == d);
    EXPECT_FALSE(c == VlewStore(vlewCodec(), 4, 8));
}

TEST(VlewStore, MemoIsNotPartOfTheImage)
{
    const auto codec = vlewCodec();
    VlewStore a(codec, 4, 8);
    Rng rng(5);
    a.randomize(0, 1, rng); // word 0 uncorrectable, the rest clean
    const VlewStore unscrubbed = a;
    for (std::size_t w = 0; w < a.words(); ++w)
        a.scrubWord(w);
    EXPECT_TRUE(a == unscrubbed);
    EXPECT_TRUE(unscrubbed == a);
    // The memo answers the repeat scrub without changing any bit.
    EXPECT_EQ(a.scrubWord(0).corrections, -1);
    EXPECT_EQ(a.scrubWord(1).corrections, 0);
    EXPECT_TRUE(a == unscrubbed);
}

TEST(VlewStore, StuckCellsHoldAgainstWrites)
{
    const auto codec = vlewCodec();
    VlewStore a(codec, 2, 8);
    const VlewStore untouched = a;
    a.setStuckBit(300, 2, true); // word 1, byte 44
    EXPECT_FALSE(a == untouched);
    EXPECT_EQ(a.stuckMask(1)[44], 0x04);
    EXPECT_EQ(a.stuckValue(1)[44], 0x04);
    EXPECT_EQ(a.beat(300 / 8)[300 % 8], 0x04);

    // Landed data cannot move a stuck cell.
    const std::uint8_t ones[8] = {0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0xFF, 0xFF};
    a.applyDelta(300 / 8, ones, VlewStore::Data);
    EXPECT_EQ(a.beat(300 / 8)[300 % 8], 0xFF);
    a.applyDelta(300 / 8, ones, VlewStore::Data);
    EXPECT_EQ(a.beat(300 / 8)[300 % 8], 0x04);

    a.corruptByte(300 / 8, 300 % 8, 0x04);
    a.clearStuck(0, a.words());
    EXPECT_TRUE(a == untouched);
}

} // namespace
} // namespace nvck
