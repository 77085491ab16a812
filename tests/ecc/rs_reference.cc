#include "rs_reference.hh"

#include <algorithm>

#include "gf/gfpoly.hh"

namespace nvck {

std::vector<GfElem>
referenceRsEncode(const RsCodec &codec, const std::vector<GfElem> &data)
{
    const Gf2m &gf = codec.field();
    GfPoly gen = GfPoly::constant(1);
    for (unsigned i = 1; i <= codec.r(); ++i)
        gen = GfPoly::mul(gf, gen, GfPoly({gf.alphaPow(i), 1}));

    // codeword(x) = d(x) * x^r + (d(x) * x^r mod g(x)).
    GfPoly message;
    for (unsigned i = 0; i < codec.k(); ++i)
        message.setCoeff(codec.r() + i, data[i]);
    const GfPoly parity = GfPoly::mod(gf, message, gen);

    std::vector<GfElem> codeword(codec.n(), 0);
    for (unsigned i = 0; i < codec.r(); ++i)
        codeword[i] = parity.coeff(i);
    for (unsigned i = 0; i < codec.k(); ++i)
        codeword[codec.r() + i] = data[i];
    return codeword;
}

std::vector<GfElem>
referenceRsSyndromes(const RsCodec &codec, const std::vector<GfElem> &word)
{
    const Gf2m &gf = codec.field();
    const GfPoly received(word);
    std::vector<GfElem> syn(codec.r());
    for (unsigned j = 1; j <= codec.r(); ++j)
        syn[j - 1] = received.eval(gf, gf.alphaPow(j));
    return syn;
}

ReferenceRsDecode
referenceRsDecode(const RsCodec &codec, const std::vector<GfElem> &word,
                  const std::vector<std::uint32_t> &erasures, int max_errors)
{
    const Gf2m &gf = codec.field();
    const unsigned r = codec.r();
    const auto e = static_cast<unsigned>(erasures.size());
    ReferenceRsDecode out;
    out.word = word;
    out.status = DecodeStatus::Uncorrectable;
    if (e > r)
        return out;
    const std::vector<GfElem> syn = referenceRsSyndromes(codec, word);
    if (std::all_of(syn.begin(), syn.end(),
                    [](GfElem s) { return s == 0; })) {
        out.status = DecodeStatus::Clean;
        return out;
    }

    // Errata Berlekamp-Massey: lambda starts as the erasure locator
    // Gamma(x) = prod (1 + X_l x) and absorbs the remaining r - e
    // syndromes; b is the polynomial before the last length change,
    // already multiplied by x for the next step.
    GfPoly lambda = GfPoly::constant(1);
    for (const std::uint32_t pos : erasures)
        lambda = GfPoly::mul(gf, lambda, GfPoly({1, gf.alphaPow(pos)}));
    GfPoly b = lambda;
    unsigned el = e;
    for (unsigned step = e + 1; step <= r; ++step) {
        GfElem disc = 0;
        for (unsigned i = 0; i < step; ++i)
            disc ^= gf.mul(lambda.coeff(i), syn[step - i - 1]);
        const GfPoly xb = GfPoly::mul(gf, b, GfPoly::monomial(1, 1));
        if (disc == 0) {
            b = xb;
            continue;
        }
        const GfPoly next =
            GfPoly::add(lambda, GfPoly::scale(gf, xb, disc));
        if (2 * el <= step + e - 1) {
            el = step + e - el;
            b = GfPoly::scale(gf, lambda, gf.inv(disc));
        } else {
            b = xb;
        }
        lambda = next;
    }
    if (lambda.degree() != static_cast<int>(el) ||
        2 * (el - e) + e > r)
        return out;
    if (max_errors >= 0 && el - e > static_cast<unsigned>(max_errors))
        return out;

    // Symbol i is in error <=> lambda(alpha^(-i)) == 0.
    std::vector<std::uint32_t> roots;
    for (std::uint32_t i = 0; i < codec.n(); ++i)
        if (lambda.eval(gf, gf.alphaPow(gf.order() - i)) == 0)
            roots.push_back(i);
    if (roots.size() != el)
        return out;

    // Forney for first consecutive root alpha^1:
    // e_i = Omega(X_i^-1) / Lambda'(X_i^-1), Omega = S * Lambda mod x^r.
    const GfPoly omega =
        GfPoly::truncate(GfPoly::mul(gf, GfPoly(syn), lambda), r);
    const GfPoly lambda_prime = GfPoly::derivative(lambda);
    std::vector<GfElem> values(roots.size());
    for (std::size_t idx = 0; idx < roots.size(); ++idx) {
        const GfElem x_inv = gf.alphaPow(gf.order() - roots[idx]);
        const GfElem denom = lambda_prime.eval(gf, x_inv);
        if (denom == 0)
            return out;
        values[idx] = gf.div(omega.eval(gf, x_inv), denom);
    }
    const auto erased = [&](std::uint32_t pos) {
        return std::find(erasures.begin(), erasures.end(), pos) !=
               erasures.end();
    };
    for (std::size_t idx = 0; idx < roots.size(); ++idx)
        if (values[idx] == 0 && !erased(roots[idx]))
            return out;

    out.status = DecodeStatus::Corrected;
    for (std::size_t idx = 0; idx < roots.size(); ++idx) {
        if (values[idx] == 0)
            continue; // an erased symbol that was right after all
        out.word[roots[idx]] ^= values[idx];
        ++out.corrections;
        if (!erased(roots[idx]))
            ++out.errorCorrections;
        out.positions.push_back(roots[idx]);
    }
    return out;
}

} // namespace nvck
