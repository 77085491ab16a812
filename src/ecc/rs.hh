/**
 * @file
 * Reed-Solomon codec over GF(2^8) (or any GF(2^m)) with full
 * errors-and-erasures decoding (Berlekamp-Massey seeded with the
 * erasure locator + Chien search + Forney value computation). This
 * implements the paper's per-block RS(72,64): 64 data bytes from eight
 * data chips plus 8 check bytes stored in the parity chip, able to
 * correct 4 random byte errors, or 8 erasures (a dead chip), or mixes
 * with 2*errors + erasures <= 8.
 *
 * Every operation runs one pipeline: the received word's remainder
 * R(x) mod g(x) from one packed LFSR (zero means clean), then, for a
 * dirty word only, the syndromes S_j = R(alpha^j) from the r-symbol
 * remainder, then Berlekamp-Massey, Chien and Forney on fixed-size
 * arrays: decode() never allocates. A pure-erasure word skips Chien,
 * and any other locator of degree >= 2 must pass the Frobenius split
 * test (locatorSplits) before the scan. The tests pin encode,
 * syndromes and decode against a reference built only from this
 * class's public API (tests/ecc/rs_reference).
 */

#ifndef NVCK_ECC_RS_HH
#define NVCK_ECC_RS_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ecc/bch.hh"
#include "gf/gf2m.hh"

namespace nvck {

/**
 * Symbol positions held inline: a decode corrects at most r <= 64
 * symbols, so the list never allocates.
 */
class RsPositions
{
  public:
    static constexpr unsigned capacity = kMaxLocatorDegree;

    void push_back(std::uint32_t pos) { items[count++] = pos; }
    const std::uint32_t *begin() const { return items.data(); }
    const std::uint32_t *end() const { return items.data() + count; }

  private:
    std::array<std::uint32_t, capacity> items{};
    unsigned count = 0;
};

/** Result of RsCodec::decode. */
struct RsDecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;
    /** Number of symbol corrections applied (errors + erasure fills). */
    unsigned corrections = 0;
    /** Of those, corrections at non-erased positions. */
    unsigned errorCorrections = 0;
    /** Corrected symbol positions, ascending. */
    RsPositions positions;
};

/**
 * Systematic shortened RS(n, k) code, narrow-sense (first consecutive
 * root alpha^1). Symbol i of the codeword vector corresponds to the
 * coefficient of x^i; symbols [0, r) are the check symbols and
 * [r, r + k) are data, mirroring the BCH layout.
 */
class RsCodec
{
  public:
    /**
     * @param data_symbols k, number of data symbols.
     * @param check_symbols r = n - k, number of check symbols; at most
     *        64 for m <= 8 and 32 otherwise (the remainder register).
     * @param field_degree m, symbol width in bits (default one byte).
     */
    RsCodec(unsigned data_symbols, unsigned check_symbols,
            unsigned field_degree = 8);

    unsigned k() const { return dataSymbols; }
    unsigned r() const { return checkSymbols; }
    unsigned n() const { return dataSymbols + checkSymbols; }
    const Gf2m &field() const { return gf; }

    /** Design byte-error correction capability floor(r / 2). */
    unsigned t() const { return checkSymbols / 2; }

    /** Minimum Hamming distance r + 1 (MDS property). */
    unsigned dmin() const { return checkSymbols + 1; }

    /** Encode @p data (k symbols) into an n-symbol codeword. */
    std::vector<GfElem> encode(std::span<const GfElem> data) const;

    /** Recompute the check symbols of @p codeword in place. */
    void reencode(std::span<GfElem> codeword) const;

    /**
     * Decode in place.
     *
     * @param codeword n received symbols, corrected on success.
     * @param erasures positions whose symbols are known-suspect (e.g.
     *        the beats from a failed chip), in any order. Correctable
     *        when 2 * errors + erasures <= r; a repeated position is
     *        Uncorrectable.
     * @param max_errors cap on the number of non-erasure errors the
     *        decoder will attempt (defaults to floor((r - e) / 2));
     *        lower caps model bounded-distance decoding used by the
     *        paper's threshold scheme.
     */
    RsDecodeResult decode(std::span<GfElem> codeword,
                          std::span<const std::uint32_t> erasures = {},
                          int max_errors = -1) const;

    /** True if @p codeword's remainder mod g is zero. */
    bool isCodeword(std::span<const GfElem> codeword) const;

    /** Extract the data symbols. */
    std::vector<GfElem> extractData(std::span<const GfElem> cw) const;

    /** Syndromes S_1 .. S_r of the received word, from its remainder
     *  R(x) = cw(x) mod g(x). */
    std::vector<GfElem> syndromes(std::span<const GfElem> cw) const;

  private:
    /**
     * Most words in the remainder register: r symbols in 8-bit lanes
     * (m <= 8) or 16-bit lanes (m > 8) fill at most 512 bits.
     */
    static constexpr unsigned kMaxRegisterWords = 8;

    /**
     * Packed remainder: symbol j of R(x) sits in lane j + lanePad, so
     * the top symbol r - 1 fills the top lane of word regWords - 1.
     * The pad lanes below symbol 0 and the words from regWords up stay
     * zero, so a zero remainder compares equal to Register{}.
     */
    using Register = std::array<std::uint64_t, kMaxRegisterWords>;

    /** (high(x) * x^r) mod g(x) for the symbols of @p high (entry i is
     *  the coefficient of x^i), fed in high symbol first. */
    Register divide(std::span<const GfElem> high) const;
    /** divide() over a register of @p W words. */
    template <unsigned W>
    Register divideWords(std::span<const GfElem> high) const;
    /** The remainder of a whole n-symbol word. */
    Register reduce(std::span<const GfElem> cw) const;
    /** The r symbols of a packed remainder into @p out. */
    void unpack(const Register &reg, GfElem *out) const;
    /** XOR symbol value @p v into lane j of @p reg. */
    void addSymbol(Register &reg, unsigned j, GfElem v) const;
    /** S_j = R(alpha^j), j = 1..r, by Horner over the r symbols, into
     *  @p syn[j - 1]. */
    void syndromesOf(const Register &rem, GfElem *syn) const;
    /** Packed taps fb * g_j through log/exp (fields without tables). */
    void tapRow(GfElem fb, std::uint64_t *row) const;

    unsigned dataSymbols;
    unsigned checkSymbols;
    Gf2m gf;

    /** Lane width in bits: 8 for m <= 8, else 16. */
    unsigned laneBits;
    /** Register words: ceil(r / lanes per word), rounded up to 1, 2, 4
     *  or 8 so each width runs one instantiation of divideWords. */
    unsigned regWords;
    /** Zero lanes below symbol 0. */
    unsigned lanePad;

    /** Discrete logs of g_0 .. g_{r-1} (-1 for zero coefficients). */
    std::vector<std::int32_t> genLog;
    /**
     * LFSR taps, 2^m rows of regWords words: row f packs f * g_j into
     * lane j + lanePad, one row XOR per feedback symbol. Built when
     * the field is small (m <= 10); larger fields pack the row through
     * log/exp (tapRow).
     */
    std::vector<std::uint64_t> genTab;
    /**
     * Syndrome steppers, flattened r x 2^m: entry (j-1, a) is
     * a * alpha^j, turning each Horner step into one table lookup.
     * Built under the same small-field gate as genTab.
     */
    std::vector<GfElem> synMulTab;
    /** chienStride[j] = alpha^(order - j), hoisted out of the search. */
    std::vector<GfElem> chienStride;
};

} // namespace nvck

#endif // NVCK_ECC_RS_HH
