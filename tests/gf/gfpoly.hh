/**
 * @file
 * Dense polynomials with coefficients in GF(2^m). Coefficient 0 is the
 * constant term. Reference arithmetic for the tests: the textbook BCH
 * and RS decoders in tests/ecc (error locator and evaluator
 * polynomials, Berlekamp-Massey, Chien search, Forney) build on it,
 * while the codecs in src/ecc run the same steps on fixed arrays.
 */

#ifndef NVCK_TESTS_GF_GFPOLY_HH
#define NVCK_TESTS_GF_GFPOLY_HH

#include <vector>

#include "gf/gf2m.hh"

namespace nvck {

/**
 * Polynomial over GF(2^m). Operations take the field explicitly so a
 * polynomial value itself stays a plain value type.
 */
class GfPoly
{
  public:
    GfPoly() = default;

    /** Construct from low-to-high coefficients. */
    explicit GfPoly(std::vector<GfElem> coefficients)
        : coeffs(std::move(coefficients))
    {
        trim();
    }

    /** The zero polynomial. */
    static GfPoly zero() { return GfPoly(); }

    /** The constant polynomial c. */
    static GfPoly constant(GfElem c);

    /** The monomial c * x^k. */
    static GfPoly monomial(GfElem c, std::size_t k);

    /** Degree; -1 for the zero polynomial. */
    int degree() const { return static_cast<int>(coeffs.size()) - 1; }

    bool isZero() const { return coeffs.empty(); }

    /** Coefficient of x^k (0 beyond the stored degree). */
    GfElem
    coeff(std::size_t k) const
    {
        return k < coeffs.size() ? coeffs[k] : 0;
    }

    /** Set the coefficient of x^k. */
    void setCoeff(std::size_t k, GfElem value);

    /** Evaluate at @p x by Horner's rule. */
    GfElem eval(const Gf2m &field, GfElem x) const;

    /** Sum (XOR) of two polynomials. */
    static GfPoly add(const GfPoly &a, const GfPoly &b);

    /** Product of two polynomials. */
    static GfPoly mul(const Gf2m &field, const GfPoly &a, const GfPoly &b);

    /** Multiply every coefficient by the scalar @p c. */
    static GfPoly scale(const Gf2m &field, const GfPoly &a, GfElem c);

    /** Remainder of @p a divided by nonzero @p b. */
    static GfPoly mod(const Gf2m &field, const GfPoly &a, const GfPoly &b);

    /**
     * Formal derivative. In characteristic 2 this keeps odd-degree terms
     * shifted down one and zeroes even-degree terms.
     */
    static GfPoly derivative(const GfPoly &a);

    /** Truncate to terms of degree < @p k (i.e. mod x^k). */
    static GfPoly truncate(const GfPoly &a, std::size_t k);

    bool operator==(const GfPoly &other) const = default;

    const std::vector<GfElem> &coefficients() const { return coeffs; }

  private:
    void trim();

    std::vector<GfElem> coeffs;
};

} // namespace nvck

#endif // NVCK_TESTS_GF_GFPOLY_HH
