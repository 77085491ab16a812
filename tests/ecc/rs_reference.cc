#include "rs_reference.hh"

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

} // namespace nvck
