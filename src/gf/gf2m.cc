#include "gf2m.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"

namespace nvck {

std::uint32_t
Gf2m::defaultPoly(unsigned m_bits)
{
    // Primitive polynomials from Lin & Costello, Appendix A.
    switch (m_bits) {
      case 3:  return 0xB;      // x^3 + x + 1
      case 4:  return 0x13;     // x^4 + x + 1
      case 5:  return 0x25;     // x^5 + x^2 + 1
      case 6:  return 0x43;     // x^6 + x + 1
      case 7:  return 0x89;     // x^7 + x^3 + 1
      case 8:  return 0x11D;    // x^8 + x^4 + x^3 + x^2 + 1
      case 9:  return 0x211;    // x^9 + x^4 + 1
      case 10: return 0x409;    // x^10 + x^3 + 1
      case 11: return 0x805;    // x^11 + x^2 + 1
      case 12: return 0x1053;   // x^12 + x^6 + x^4 + x + 1
      case 13: return 0x201B;   // x^13 + x^4 + x^3 + x + 1
      case 14: return 0x4443;   // x^14 + x^10 + x^6 + x + 1
      case 15: return 0x8003;   // x^15 + x + 1
      case 16: return 0x1100B;  // x^16 + x^12 + x^3 + x + 1
      default:
        NVCK_FATAL("unsupported GF(2^m) degree m=", m_bits);
    }
}

Gf2m::Gf2m(unsigned m_bits, std::uint32_t primitive_poly)
    : degree(m_bits),
      fieldSize(1u << m_bits),
      primPoly(primitive_poly ? primitive_poly : defaultPoly(m_bits))
{
    NVCK_ASSERT(m_bits >= 3 && m_bits <= 16, "field degree out of range");
    expTable.resize(2 * order());
    logTable.assign(fieldSize, 0);

    std::uint32_t value = 1;
    for (std::uint32_t i = 0; i < order(); ++i) {
        expTable[i] = value;
        NVCK_ASSERT(value < fieldSize, "element escaped field");
        NVCK_ASSERT(i == 0 || (value != 1 && logTable[value] == 0),
                    "polynomial is not primitive for this degree");
        logTable[value] = i;
        value <<= 1;
        if (value & fieldSize)
            value ^= primPoly;
    }
    NVCK_ASSERT(value == 1, "alpha does not generate the full group; "
                "polynomial is not primitive");
    // Duplicate the exp table so mul() can skip the (i+j) mod (2^m-1).
    for (std::uint32_t i = 0; i < order(); ++i)
        expTable[order() + i] = expTable[i];
}

GfElem
Gf2m::inv(GfElem a) const
{
    NVCK_ASSERT(a != 0, "inverse of zero");
    return expTable[order() - logTable[a]];
}

GfElem
Gf2m::div(GfElem a, GfElem b) const
{
    NVCK_ASSERT(b != 0, "division by zero");
    if (a == 0)
        return 0;
    return expTable[logTable[a] + order() - logTable[b]];
}

GfElem
Gf2m::alphaPow(std::uint64_t e) const
{
    return expTable[e % order()];
}

GfElem
Gf2m::pow(GfElem a, std::uint64_t e) const
{
    if (a == 0)
        return e == 0 ? 1 : 0;
    const std::uint64_t exponent =
        (static_cast<std::uint64_t>(logTable[a]) * (e % order())) % order();
    return expTable[exponent];
}

std::uint32_t
Gf2m::log(GfElem a) const
{
    NVCK_ASSERT(a != 0, "log of zero");
    return logTable[a];
}

bool
locatorSplits(const Gf2m &gf, std::span<const GfElem> lambda)
{
    std::size_t top = lambda.size();
    while (top > 0 && lambda[top - 1] == 0)
        --top;
    if (top < 3)
        return true;
    const auto nu = static_cast<unsigned>(top - 1);
    NVCK_ASSERT(nu <= kMaxLocatorDegree, "locator degree above the cap");

    // Reduction by the monic locator: x^nu = sum_{j<nu} mon_j x^j with
    // mon_j = lambda_j / lambda_nu, kept as discrete logs (zero
    // coefficients flagged) so each reduction product is one
    // expSum lookup.
    constexpr std::uint32_t zeroLog = ~0u;
    const std::uint32_t ord = gf.order();
    const std::uint32_t lead_inv = ord - gf.log(lambda[nu]);
    std::array<std::uint32_t, kMaxLocatorDegree> mon_log{};
    for (unsigned j = 0; j < nu; ++j) {
        const GfElem c = lambda[j];
        mon_log[j] = c == 0 ? zeroLog : (gf.log(c) + lead_inv) % ord;
    }

    // p <- p^2 mod lambda, m times, starting from p = x. Squaring is
    // coefficient-wise in characteristic 2 (p_i x^i -> p_i^2 x^2i);
    // the degree-(2nu-2) square is then reduced top-down.
    std::array<GfElem, 2 * kMaxLocatorDegree - 1> sq{};
    std::array<GfElem, kMaxLocatorDegree> p{};
    p[1] = 1;
    for (unsigned s = 0; s < gf.m(); ++s) {
        std::fill_n(sq.begin(), 2 * nu - 1, 0);
        for (unsigned i = 0; i < nu; ++i) {
            if (p[i] != 0) {
                const std::uint32_t l = gf.log(p[i]);
                sq[2 * i] = gf.expSum(l, l);
            }
        }
        for (unsigned d = 2 * nu - 1; d-- > nu;) {
            if (sq[d] == 0)
                continue;
            const std::uint32_t lc = gf.log(sq[d]);
            GfElem *low = &sq[d - nu];
            for (unsigned j = 0; j < nu; ++j)
                if (mon_log[j] != zeroLog)
                    low[j] ^= gf.expSum(lc, mon_log[j]);
        }
        std::copy_n(sq.begin(), nu, p.begin());
    }

    // lambda divides x^(2^m) - x, the product of (x - a) over the whole
    // field, exactly when the reduced power is x itself.
    for (unsigned i = 0; i < nu; ++i)
        if (p[i] != (i == 1 ? 1 : 0))
            return false;
    return true;
}

} // namespace nvck
