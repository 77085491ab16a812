/**
 * @file
 * Reed-Solomon codec over GF(2^8) (or any GF(2^m)) with full
 * errors-and-erasures decoding (Berlekamp-Massey on Forney-modified
 * syndromes + Chien search + Forney value computation). This implements
 * the paper's per-block RS(72,64): 64 data bytes from eight data chips
 * plus 8 check bytes stored in the parity chip, able to correct 4 random
 * byte errors, or 8 erasures (a dead chip), or mixes with
 * 2*errors + erasures <= 8.
 */

#ifndef NVCK_ECC_RS_HH
#define NVCK_ECC_RS_HH

#include <cstdint>
#include <vector>

#include "ecc/bch.hh"
#include "gf/gf2m.hh"
#include "gf/gfpoly.hh"

namespace nvck {

/** Result of RsCodec::decode. */
struct RsDecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;
    /** Number of symbol corrections applied (errors + erasure fills). */
    unsigned corrections = 0;
    /** Of those, corrections at non-erased positions. */
    unsigned errorCorrections = 0;
    /** Corrected symbol positions. */
    std::vector<std::uint32_t> positions;
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
     * @param check_symbols r = n - k, number of check symbols.
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
    std::vector<GfElem> encode(const std::vector<GfElem> &data) const;

    /** Recompute the check symbols of @p codeword in place. */
    void reencode(std::vector<GfElem> &codeword) const;

    /**
     * Decode in place.
     *
     * @param codeword n received symbols, corrected on success.
     * @param erasures positions whose symbols are known-suspect (e.g.
     *        the beats from a failed chip). Correctable when
     *        2 * errors + erasures <= r.
     * @param max_errors cap on the number of non-erasure errors the
     *        decoder will attempt (defaults to floor((r - e) / 2));
     *        lower caps model bounded-distance decoding used by the
     *        paper's threshold scheme.
     */
    RsDecodeResult decode(std::vector<GfElem> &codeword,
                          const std::vector<std::uint32_t> &erasures = {},
                          int max_errors = -1) const;

    /** True if @p codeword has an all-zero syndrome. */
    bool isCodeword(const std::vector<GfElem> &codeword) const;

    /** Extract the data symbols. */
    std::vector<GfElem> extractData(const std::vector<GfElem> &cw) const;

    /**
     * Syndromes S_1 .. S_r of the received word: a Horner evaluation
     * whose multiply-by-alpha^j step is one mul-table lookup in small
     * fields (m <= 10) and a GF multiply in larger ones.
     */
    std::vector<GfElem> syndromes(const std::vector<GfElem> &cw) const;

  private:
    /** Build the small-field mul-tables (m <= 10 only). */
    void buildMulTables();

    unsigned dataSymbols;
    unsigned checkSymbols;
    Gf2m gf;

    /** Low generator coefficients g_0 .. g_{r-1} (monic top dropped). */
    std::vector<GfElem> genLow;
    /** Discrete logs of genLow (-1 for zero coefficients). */
    std::vector<std::int32_t> genLog;
    /**
     * Encode taps, flattened 2^m x r: row f holds f * g_i for
     * every tap, one row XOR per nonzero feedback. Built when the
     * field is small (m <= 10); larger fields batch via log/exp.
     */
    std::vector<GfElem> genMulTab;
    /**
     * Syndrome steppers, flattened r x 2^m: entry (j-1, a) is
     * a * alpha^j, turning each Horner step into one table lookup.
     * Built under the same small-field gate as genMulTab.
     */
    std::vector<GfElem> synMulTab;
    /** chienStride[j] = alpha^(order - j), hoisted out of the search. */
    std::vector<GfElem> chienStride;
};

} // namespace nvck

#endif // NVCK_ECC_RS_HH
