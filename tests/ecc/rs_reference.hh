/**
 * @file
 * Textbook Reed-Solomon arithmetic, built only from RsCodec's public
 * API (field(), k(), r(), n()): the systematic encoder as one
 * GfPoly::mod against the narrow-sense generator prod (x - alpha^i),
 * rebuilt here from the field, the syndromes as GfPoly::eval of the
 * received word at alpha^1 .. alpha^r, and an errors-and-erasures
 * decoder on GfPoly values: Berlekamp-Massey seeded with the erasure
 * locator, an exhaustive Chien scan by GfPoly::eval at alpha^(-i) for
 * every position, and Forney. It shares no table or loop with the
 * codec, so the tests can pin RsCodec's encode, syndromes and decode
 * against it.
 */

#ifndef NVCK_TESTS_ECC_RS_REFERENCE_HH
#define NVCK_TESTS_ECC_RS_REFERENCE_HH

#include <vector>

#include "ecc/rs.hh"
#include "gf/gf2m.hh"

namespace nvck {

/** Systematic n-symbol codeword [parity | data] of k-symbol @p data. */
std::vector<GfElem> referenceRsEncode(const RsCodec &codec,
                                      const std::vector<GfElem> &data);

/** Syndromes S_1 .. S_r (entry j-1 holds S_j) of @p word. */
std::vector<GfElem> referenceRsSyndromes(const RsCodec &codec,
                                         const std::vector<GfElem> &word);

/** What referenceRsDecode reports: RsDecodeResult's fields plus the
 *  word as the decoder leaves it. */
struct ReferenceRsDecode
{
    DecodeStatus status = DecodeStatus::Clean;
    unsigned corrections = 0;
    unsigned errorCorrections = 0;
    std::vector<std::uint32_t> positions;
    std::vector<GfElem> word;
};

/**
 * Decode @p word with RsCodec::decode's contract: Uncorrectable for
 * more than r erasures; Clean for zero syndromes; otherwise the errata
 * locator must have degree el (the register length) with
 * 2 * (el - e) + e <= r, at most @p max_errors errors (when >= 0),
 * exactly el roots in [0, n) and a nonzero Forney value at every
 * non-erased root, else Uncorrectable with the word unchanged.
 */
ReferenceRsDecode referenceRsDecode(const RsCodec &codec,
                                    const std::vector<GfElem> &word,
                                    const std::vector<std::uint32_t> &erasures,
                                    int max_errors = -1);

} // namespace nvck

#endif // NVCK_TESTS_ECC_RS_REFERENCE_HH
