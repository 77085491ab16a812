/**
 * @file
 * Textbook binary BCH decoder, built only from BchCodec's public API:
 * whole-codeword syndromes(), the full 2t-step Berlekamp-Massey
 * iteration (no binary step skipping, no early abort) and an
 * exhaustive Chien scan that evaluates the locator with GfPoly::eval
 * at alpha^(-i) for every position i in [0, n). It shares no decode
 * code with the codec, so the tests can pin BchCodec::decode and
 * BchCodec::solveFromResidue against it.
 */

#ifndef NVCK_TESTS_ECC_BCH_REFERENCE_HH
#define NVCK_TESTS_ECC_BCH_REFERENCE_HH

#include <vector>

#include "common/bitvec.hh"
#include "ecc/bch.hh"
#include "gf/gf2m.hh"
#include "gf/gfpoly.hh"

namespace nvck {

/**
 * Error-locator polynomial of the syndromes S_1 .. S_2t (@p syn[j-1]
 * holds S_j) by the textbook 2t-step Berlekamp-Massey iteration.
 * @p len receives the final register length.
 */
GfPoly referenceLocator(const Gf2m &gf, const std::vector<GfElem> &syn,
                        unsigned &len);

/** Number of distinct roots of @p poly among the nonzero elements of
 *  GF(2^m), by evaluating it at every one of them. */
unsigned distinctFieldRoots(const Gf2m &gf, const GfPoly &poly);

/**
 * Decode @p word (n bits, left unmodified) the textbook way: Clean
 * when every syndrome is zero; otherwise Corrected with the in-range
 * roots, ascending, when the locator has degree len <= t and exactly
 * len roots at positions in [0, n); Uncorrectable else.
 */
BchDecodeResult referenceDecode(const BchCodec &codec, const BitVec &word);

} // namespace nvck

#endif // NVCK_TESTS_ECC_BCH_REFERENCE_HH
