#include "bch_reference.hh"

#include <algorithm>

namespace nvck {

BinPoly
referenceGenerator(const BchCodec &codec)
{
    const std::vector<std::uint64_t> &words = codec.generator();
    BinPoly gen;
    for (std::size_t i = 0; i < 64 * words.size(); ++i)
        if ((words[i / 64] >> (i % 64)) & 1)
            gen.setBit(i);
    return gen;
}

BitVec
referenceResidue(const BchCodec &codec, const BitVec &word)
{
    BinPoly poly;
    for (std::size_t i = 0; i < word.size(); ++i)
        if (word.get(i))
            poly.setBit(i);
    const BinPoly rem = BinPoly::mod(BinPoly::shift(poly, codec.r()),
                                     referenceGenerator(codec));
    BitVec out(codec.r());
    for (unsigned i = 0; i < codec.r(); ++i)
        out.set(i, rem.bit(i));
    return out;
}

BitVec
referenceEncode(const BchCodec &codec, const BitVec &data)
{
    const BitVec check = referenceResidue(codec, data);
    BitVec codeword(codec.n());
    codeword.copyRange(0, check, 0, codec.r());
    codeword.copyRange(codec.r(), data, 0, data.size());
    return codeword;
}

std::vector<GfElem>
referenceSyndromes(const BchCodec &codec, const BitVec &word)
{
    const Gf2m &gf = codec.field();
    std::vector<GfElem> syn(2 * codec.t(), 0);
    const std::size_t bits = std::min<std::size_t>(word.size(), codec.n());
    for (std::size_t i = 0; i < bits; ++i) {
        if (!word.get(i))
            continue;
        for (std::size_t j = 1; j <= syn.size(); ++j)
            syn[j - 1] ^= gf.alphaPow((j * i) % gf.order());
    }
    return syn;
}

GfPoly
referenceLocator(const Gf2m &gf, const std::vector<GfElem> &syn,
                 unsigned &len)
{
    // Massey's shift-register synthesis: C is the current connection
    // polynomial, B the one before the last length change, b that
    // change's discrepancy and shift the x-power separating them.
    std::vector<GfElem> c{1};
    std::vector<GfElem> b_poly{1};
    unsigned l = 0;
    unsigned shift = 1;
    GfElem b = 1;
    for (std::size_t step = 0; step < syn.size(); ++step) {
        GfElem disc = syn[step];
        for (unsigned i = 1; i <= l && i < c.size(); ++i)
            disc ^= gf.mul(c[i], syn[step - i]);
        if (disc == 0) {
            ++shift;
            continue;
        }
        const GfElem factor = gf.div(disc, b);
        std::vector<GfElem> next = c;
        next.resize(std::max(c.size(), b_poly.size() + shift), 0);
        for (std::size_t i = 0; i < b_poly.size(); ++i)
            next[i + shift] ^= gf.mul(factor, b_poly[i]);
        if (2 * l <= step) {
            b_poly = c;
            b = disc;
            l = static_cast<unsigned>(step) + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
        c = std::move(next);
    }
    len = l;
    return GfPoly(std::move(c));
}

unsigned
distinctFieldRoots(const Gf2m &gf, const GfPoly &poly)
{
    unsigned roots = 0;
    for (std::uint32_t e = 0; e < gf.order(); ++e)
        if (poly.eval(gf, gf.alphaPow(e)) == 0)
            ++roots;
    return roots;
}

BchDecodeResult
referenceDecode(const BchCodec &codec, const BitVec &word)
{
    BchDecodeResult result;
    const std::vector<GfElem> syn = referenceSyndromes(codec, word);
    if (std::all_of(syn.begin(), syn.end(),
                    [](GfElem s) { return s == 0; }))
        return result; // Clean

    const Gf2m &gf = codec.field();
    unsigned len = 0;
    const GfPoly lambda = referenceLocator(gf, syn, len);
    result.status = DecodeStatus::Uncorrectable;
    if (len > codec.t() || lambda.degree() != static_cast<int>(len))
        return result;

    // Error at position i <=> lambda(alpha^(-i)) == 0.
    std::vector<std::uint32_t> positions;
    for (std::uint32_t i = 0; i < codec.n(); ++i)
        if (lambda.eval(gf, gf.alphaPow(gf.order() - i)) == 0)
            positions.push_back(i);
    if (positions.size() != len)
        return result;
    result.status = DecodeStatus::Corrected;
    result.corrections = len;
    result.positions = std::move(positions);
    return result;
}

} // namespace nvck
