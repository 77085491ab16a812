/**
 * @file
 * Arithmetic in the finite field GF(2^m), 3 <= m <= 16, implemented with
 * log/antilog tables over a primitive element alpha. This is the shared
 * substrate for the BCH codec (typically m = 12..14 for VLEW-scale words)
 * and the Reed-Solomon codec (m = 8, one symbol per byte).
 */

#ifndef NVCK_GF_GF2M_HH
#define NVCK_GF_GF2M_HH

#include <cstdint>
#include <span>
#include <vector>

namespace nvck {

/** A field element; valid values occupy the low m bits. */
using GfElem = std::uint32_t;

/**
 * The field GF(2^m) constructed from a default (or caller-supplied)
 * primitive polynomial. Elements are represented in the polynomial basis;
 * multiplication/division/inversion go through discrete-log tables.
 */
class Gf2m
{
  public:
    /**
     * Build the field.
     *
     * @param m_bits Field degree m (3..16).
     * @param primitive_poly Primitive polynomial bit mask including the
     *        x^m term; 0 selects a built-in default (e.g. 0x11D for m=8).
     */
    explicit Gf2m(unsigned m_bits, std::uint32_t primitive_poly = 0);

    /** Field degree m. */
    unsigned m() const { return degree; }

    /** Field size 2^m. */
    std::uint32_t size() const { return fieldSize; }

    /** Multiplicative-group order 2^m - 1. */
    std::uint32_t order() const { return fieldSize - 1; }

    /** Addition = subtraction = XOR in characteristic 2. */
    static GfElem add(GfElem a, GfElem b) { return a ^ b; }

    /** Multiply two elements. */
    GfElem
    mul(GfElem a, GfElem b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return expTable[logTable[a] + logTable[b]];
    }

    /**
     * Product from precomputed discrete logs: alpha^(la + lb) for
     * la, lb < order(). Lets batched kernels (RS encode/syndromes) pay
     * the log lookups once per operand instead of per product.
     */
    GfElem
    expSum(std::uint32_t la, std::uint32_t lb) const
    {
        return expTable[la + lb];
    }

    /** Multiplicative inverse of a nonzero element. */
    GfElem inv(GfElem a) const;

    /** Divide @p a by nonzero @p b. */
    GfElem div(GfElem a, GfElem b) const;

    /** alpha^e for any integer exponent e >= 0. */
    GfElem alphaPow(std::uint64_t e) const;

    /** a^e for any integer exponent e >= 0. */
    GfElem pow(GfElem a, std::uint64_t e) const;

    /** Discrete log base alpha of a nonzero element. */
    std::uint32_t log(GfElem a) const;

    /** The default primitive polynomial for degree @p m_bits. */
    static std::uint32_t defaultPoly(unsigned m_bits);

    /** Primitive polynomial in use (including the x^m term). */
    std::uint32_t poly() const { return primPoly; }

  private:
    unsigned degree;
    std::uint32_t fieldSize;
    std::uint32_t primPoly;
    /** expTable[i] = alpha^i for i in [0, 2*(2^m-1)) to skip a mod. */
    std::vector<GfElem> expTable;
    /** logTable[a] = discrete log of a (undefined for 0). */
    std::vector<std::uint32_t> logTable;
};

/** Largest degree locatorSplits() takes: the RS codec's r <= 64. */
inline constexpr unsigned kMaxLocatorDegree = 64;

/**
 * Frobenius split test: true when the polynomial with low-to-high
 * coefficients @p lambda (nonzero constant term, degree at most
 * kMaxLocatorDegree) is a product of distinct linear factors over
 * GF(2^m), i.e. when x^(2^m) = x mod lambda. Computed by m squarings
 * modulo lambda (about m * nu^2 multiplies for degree nu) in fixed
 * arrays. A locator that fails it cannot have nu distinct roots, so a
 * Chien scan could only report Uncorrectable. Degrees below 2 always
 * pass. Both the BCH and RS decoders run it before their Chien scans.
 */
bool locatorSplits(const Gf2m &gf, std::span<const GfElem> lambda);

} // namespace nvck

#endif // NVCK_GF_GF2M_HH
