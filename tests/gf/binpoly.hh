/**
 * @file
 * Polynomials over GF(2), packed bitwise into 64-bit words (bit i of the
 * packing = coefficient of x^i). Reference arithmetic for the tests:
 * the textbook BCH residue and encoder in tests/ecc/bch_reference run
 * on it.
 */

#ifndef NVCK_TESTS_GF_BINPOLY_HH
#define NVCK_TESTS_GF_BINPOLY_HH

#include <cstdint>
#include <vector>

namespace nvck {

/** A binary polynomial of arbitrary degree. */
class BinPoly
{
  public:
    BinPoly() = default;

    /** Construct from a (small) bit mask: bit i = coeff of x^i. */
    explicit BinPoly(std::uint64_t mask);

    /** The constant 1. */
    static BinPoly one() { return BinPoly(1); }

    /** Degree; -1 for the zero polynomial. */
    int degree() const;

    bool isZero() const;

    /** Coefficient of x^i. */
    bool
    bit(std::size_t i) const
    {
        const std::size_t w = i >> 6;
        return w < words.size() && ((words[w] >> (i & 63)) & 1);
    }

    /** Set coefficient of x^i. */
    void setBit(std::size_t i, bool value = true);

    /** XOR (= add) another polynomial into this one. */
    BinPoly &operator^=(const BinPoly &other);

    /** Carry-less product. */
    static BinPoly mul(const BinPoly &a, const BinPoly &b);

    /** Remainder of a / b (b nonzero). */
    static BinPoly mod(const BinPoly &a, const BinPoly &b);

    /** Multiply by x^k (left shift). */
    static BinPoly shift(const BinPoly &a, std::size_t k);

    bool operator==(const BinPoly &other) const;

    /** Packed words, LSB-first. */
    const std::vector<std::uint64_t> &raw() const { return words; }

  private:
    void trim();

    std::vector<std::uint64_t> words;
};

} // namespace nvck

#endif // NVCK_TESTS_GF_BINPOLY_HH
