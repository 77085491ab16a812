/**
 * @file
 * Textbook binary BCH arithmetic, built only from BchCodec's public
 * API (generator(), field(), n(), r(), t()): the residue and encoder as
 * one BinPoly::mod against the generator (converted from the codec's
 * packed words), whole-word syndromes summed
 * per set bit, and a decoder that runs the full 2t-step
 * Berlekamp-Massey iteration (no binary step skipping, no early abort)
 * and an exhaustive Chien scan evaluating the locator with
 * GfPoly::eval at alpha^(-i) for every position i in [0, n). It shares
 * no table or loop with the codec, so the tests can pin BchCodec's
 * encode, residues, syndromes and decode against it.
 */

#ifndef NVCK_TESTS_ECC_BCH_REFERENCE_HH
#define NVCK_TESTS_ECC_BCH_REFERENCE_HH

#include <vector>

#include "common/bitvec.hh"
#include "ecc/bch.hh"
#include "gf/binpoly.hh"
#include "gf/gf2m.hh"
#include "gf/gfpoly.hh"

namespace nvck {

/** The codec's generator (packed words, generator()) as a BinPoly. */
BinPoly referenceGenerator(const BchCodec &codec);

/**
 * (word(x) * x^r) mod g(x) as an r-bit vector: the check bits of
 * @p word when it is a k-bit data word, and the residue a codeword
 * check runs on when it is an n-bit received word.
 */
BitVec referenceResidue(const BchCodec &codec, const BitVec &word);

/** Systematic n-bit codeword [residue(data) | data] of k-bit @p data. */
BitVec referenceEncode(const BchCodec &codec, const BitVec &data);

/**
 * Syndromes S_1 .. S_2t (entry j-1 holds S_j) of @p word: S_j is the
 * sum of alpha^(j*i) over the set bits i < n of @p word; bits at
 * positions >= n of an over-long vector are ignored.
 */
std::vector<GfElem> referenceSyndromes(const BchCodec &codec,
                                       const BitVec &word);

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
