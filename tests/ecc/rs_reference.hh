/**
 * @file
 * Textbook Reed-Solomon arithmetic, built only from RsCodec's public
 * API (field(), k(), r(), n()): the systematic encoder as one
 * GfPoly::mod against the narrow-sense generator prod (x - alpha^i),
 * rebuilt here from the field, and the syndromes as GfPoly::eval of
 * the received word at alpha^1 .. alpha^r. It shares no table or loop
 * with the codec, so the tests can pin RsCodec's encode and syndromes
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

} // namespace nvck

#endif // NVCK_TESTS_ECC_RS_REFERENCE_HH
