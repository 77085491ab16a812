/**
 * @file
 * Binary BCH codec: systematic encoding via LFSR division by the
 * generator polynomial, decoding via one residue-based pipeline
 * (remainder -> syndromes -> binary Berlekamp-Massey -> Frobenius
 * split test -> early-stop Chien search). Supports shortened codes
 * (k smaller than the natural 2^m - 1 - r), which is how both the
 * per-block 14-EC code and the per-chip 22-EC VLEW code of the paper
 * are realised.
 *
 * The hot loops are table-driven: 64-bit-wide remainder lanes and a
 * slicing-by-8 byte step for the residue, per-byte partial-syndrome
 * tables with alpha^(8j) Horner strides for the syndromes. Codes too
 * small for the tables (r < 8) fall back to the bit-serial LFSR. The
 * tests pin encode, residues, syndromes and decode against a reference
 * built only from this class's public API (tests/ecc/bch_reference).
 */

#ifndef NVCK_ECC_BCH_HH
#define NVCK_ECC_BCH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hh"
#include "gf/gf2m.hh"

namespace nvck {

/** Outcome of a BCH decode attempt. */
enum class DecodeStatus
{
    Clean,         //!< no errors detected
    Corrected,     //!< errors found and corrected
    Uncorrectable, //!< error pattern exceeds the code's capability
};

/** Result of BchCodec::decode. */
struct BchDecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;
    /** Number of bit corrections applied. */
    unsigned corrections = 0;
    /** Corrected bit positions within the codeword. */
    std::vector<std::uint32_t> positions;
};

/**
 * Streaming residue accumulator for the batched scrub pass. The caller
 * feeds the received word from its highest coefficient downward in
 * arbitrary byte/word segments; the state tracks (prefix(x) * x^r)
 * mod g, so after the whole word is absorbed an all-zero state means
 * "codeword" with no syndrome work at all, and a dirty word's
 * syndromes can be evaluated from the r-bit remainder instead of the
 * n-bit codeword (syndromesFromResidue / solveFromResidue).
 */
struct BchResidue
{
    std::vector<std::uint64_t> rem;
};

/**
 * A t-bit-error-correcting binary BCH code over GF(2^m) protecting
 * k data bits. Codeword layout (bit index = coefficient of x^index):
 * bits [0, r) hold the check bits, bits [r, r + k) hold the data, where
 * r = deg(generator).
 */
class BchCodec
{
  public:
    /**
     * Largest t the decoder's fixed arrays hold: the paper's 22-EC
     * VLEW code, the strongest one the repository builds.
     */
    static constexpr unsigned kMaxCorrectBits = 22;

    /**
     * Construct the code.
     * @param data_bits  k, number of protected data bits.
     * @param correct_bits  t, the design correction capability
     *        (1 .. kMaxCorrectBits).
     * @param field_degree  m; 0 picks the smallest m that fits
     *        k + t*m check bits within 2^m - 1.
     */
    BchCodec(unsigned data_bits, unsigned correct_bits,
             unsigned field_degree = 0);

    unsigned k() const { return dataBits; }
    unsigned t() const { return correctBits; }
    /** Actual number of check bits, deg(g) <= t*m. */
    unsigned r() const { return checkBits; }
    /** Codeword length k + r. */
    unsigned n() const { return dataBits + checkBits; }
    const Gf2m &field() const { return gf; }

    /**
     * Systematically encode @p data (k bits) into a fresh n-bit codeword
     * with layout [check | data].
     */
    BitVec encode(const BitVec &data) const;

    /** Recompute and overwrite the check bits of @p codeword in place. */
    void reencode(BitVec &codeword) const;

    /**
     * Compute the check-bit delta for a data update: because BCH is
     * linear, f(x_new) xor f(x_old) = f(x_new xor x_old). @p data_delta
     * is the k-bit XOR of old and new data; the result is the r-bit XOR
     * to apply to the stored check bits. This is the operation the
     * paper's in-NVRAM encoder performs on the bitwise sum (Fig 11/12).
     */
    BitVec encodeDelta(const BitVec &data_delta) const;

    /**
     * Decode @p codeword in place (n bits). Corrects up to t bit errors;
     * reports Uncorrectable when the syndrome is inconsistent with any
     * pattern of weight <= t. Runs the residue pass
     * (residueAbsorbBits) and solveFromResidue, then flips the
     * returned positions.
     */
    BchDecodeResult decode(BitVec &codeword) const;

    /** True if the codeword currently has an all-zero syndrome. */
    bool isCodeword(const BitVec &codeword) const;

    /** Extract the data bits of a codeword. */
    BitVec extractData(const BitVec &codeword) const;

    /**
     * Generator polynomial over GF(2), packed low-to-high into 64-bit
     * words (bit i = coefficient of x^i, the x^r term included).
     */
    const std::vector<std::uint64_t> &generator() const { return gen; }

    /** Reset @p state to the empty-prefix residue (all zero). */
    void residueStart(BchResidue &state) const;

    /**
     * Absorb the next-lower @p count bytes of the received word
     * (byte [count-1] is the segment's highest coefficient). Runs the
     * 64-bit-wide lanes when r >= 64, the slicing-by-8 byte step for
     * r >= 8, and the bit-serial LFSR otherwise — all bit-identical by
     * construction.
     */
    void residueAbsorbBytes(BchResidue &state, const std::uint8_t *bytes,
                            std::size_t count) const;

    /**
     * Absorb the next-lower @p nbits bits of the received word from
     * packed little-endian words (bit nbits-1 of @p words is the
     * segment's highest coefficient). Segments need no alignment; a
     * BitVec's raw() storage can be passed directly.
     */
    void residueAbsorbBits(BchResidue &state, const std::uint64_t *words,
                           std::size_t nbits) const;

    /** True when the absorbed prefix is a codeword (zero remainder). */
    bool residueIsZero(const BchResidue &state) const;

    /**
     * Syndromes S_1 .. S_2t evaluated from a fully absorbed residue
     * into @p syn[0 .. 2t) (entry j-1 holds S_j):
     * S_j = rem(alpha^j) * alpha^(-rj), an r-bit evaluation instead of
     * an n-bit one: the whole-word syndromes of the absorbed word.
     */
    void syndromesFromResidue(const BchResidue &state,
                              std::span<GfElem> syn) const;

    /**
     * Decode from a fully absorbed residue without materialising the
     * codeword: returns the same status/corrections/positions decode()
     * would, but applies no bit flips (the caller owns the storage).
     * Berlekamp-Massey skips the provably zero-discrepancy
     * even-syndrome steps and aborts as soon as the register length
     * exceeds t; a locator that fails the split test
     * (locatorSplits in gf/gf2m.hh) is rejected before any Chien
     * work, and the Chien scan stops at the nu-th root. The tests pin
     * the result against a textbook reference decoder.
     */
    BchDecodeResult solveFromResidue(const BchResidue &state) const;

  private:
    /** Remainder of the first @p nbits of @p words times x^r, modulo
     *  g, through residueAbsorbBits. */
    std::vector<std::uint64_t>
    residue(const std::vector<std::uint64_t> &words,
            std::size_t nbits) const;

    /** One LFSR step: rem <- (rem * x + in * x^r) mod g. */
    void stepBit(std::vector<std::uint64_t> &rem, bool in) const;

    /**
     * One slicing-by-8 step: rem <- (rem * x^8 + byte * x^r) mod g.
     * Only the sub-chunk tail of a wide run (or whole words when
     * r < 64) takes it.
     */
    void byteStep(std::vector<std::uint64_t> &rem, unsigned in_byte) const;

    /**
     * Convert the packed remainder to/from the shifted domain of the
     * wide residue lanes (remainder pre-shifted left by
     * 64*remWords - r so the 64-bit feedback window is exactly the top
     * storage word). Applied once per wide run, not per step.
     */
    void shiftRemUp(std::vector<std::uint64_t> &rem) const;
    void shiftRemDown(std::vector<std::uint64_t> &rem) const;

    /**
     * Binary Berlekamp-Massey: fill @p lambda (2t + 1 coefficients,
     * low-to-high) and @p len from the 2t syndromes @p syn and report
     * whether they describe a correctable pattern (len <= t and
     * deg(lambda) == len). Skips the even-syndrome steps whose
     * discrepancy is structurally zero for binary BCH and aborts once
     * len exceeds t (len never shrinks).
     */
    bool bmLocator(const GfElem *syn, GfElem *lambda, unsigned &len) const;

    /**
     * Root search over the shortened positions [0, n): reject a
     * degree-@p nu locator that fails locatorSplits, otherwise fill
     * @p positions with the roots of @p lambda, stopping at the nu-th
     * (a degree-nu locator has no more), and report whether exactly
     * @p nu distinct in-range roots exist.
     */
    bool chienSearch(const GfElem *lambda, unsigned nu,
                     std::vector<std::uint32_t> &positions) const;

    /** Build the remainder and syndrome lookup tables. */
    void buildTables();

    unsigned dataBits;
    unsigned correctBits;
    unsigned checkBits;
    Gf2m gf;
    /** Generator packed low-to-high (generator()). */
    std::vector<std::uint64_t> gen;
    /** The generator without its x^r term: what the LFSR XORs into
     *  the remainder on feedback. */
    std::vector<std::uint64_t> genWords;

    // -- geometry of the packed remainder --
    /** Words holding the r-bit remainder. */
    unsigned remWords = 0;
    /** Mask for the top remainder word (all-ones when r % 64 == 0). */
    std::uint64_t remTopMask = ~0ull;

    // -- lookup tables --
    /**
     * Slicing-by-8 remainder-update table, flattened 256 x remWords:
     * entry v holds (v(x) * x^r) mod g packed low-to-high. Built only
     * when r >= 8.
     */
    std::vector<std::uint64_t> encTable;
    /**
     * 64-bit-wide residue lanes for the streaming scrub pass,
     * flattened 8 x 256 x remWords: lane b entry v holds
     * ((v(x) * x^(8b) * x^r) mod g) << (64*remWords - r), i.e. the
     * rows live in a shifted domain where the remainder's 64-bit
     * feedback window is exactly its top storage word — the wide step
     * folds eight input bytes with eight table XORs and no cross-word
     * extraction or masking (see shiftRemUp/shiftRemDown). Built only
     * when r >= 64 (the feedback chunk must fit in the remainder).
     */
    std::vector<std::uint64_t> wideTab;
    /**
     * Per-byte partial syndromes, flattened t x 256: entry (j, v) is
     * sum over set bits b of v of alpha^((2j+1) * b).
     */
    std::vector<GfElem> synByteTab;
    /** Horner stride per odd syndrome: alpha^(8 * (2j+1) mod order). */
    std::vector<GfElem> synStride;

    /** chienStride[j] = alpha^(order - j), hoisted out of the search. */
    std::vector<GfElem> chienStride;
    /**
     * Residue-to-syndrome fixups: resFix[idx] = alpha^(-r * (2idx+1)),
     * turning rem(alpha^j) into S_j for odd j (evens are squares).
     */
    std::vector<GfElem> resFix;
};

} // namespace nvck

#endif // NVCK_ECC_BCH_HH
