#include "rs.hh"

#include <algorithm>

#include "common/log.hh"

namespace nvck {

namespace {

/** Field-size cap under which the per-feedback tap rows and syndrome
 *  steppers are built: 16 KiB of taps at m = 10, r = 8. */
constexpr std::uint32_t kMulTabMaxFieldSize = 1u << 10;

} // namespace

RsCodec::RsCodec(unsigned data_symbols, unsigned check_symbols,
                 unsigned field_degree)
    : dataSymbols(data_symbols),
      checkSymbols(check_symbols),
      gf(field_degree),
      laneBits(field_degree <= 8 ? 8 : 16)
{
    NVCK_ASSERT(checkSymbols >= 1, "RS needs at least one check symbol");
    NVCK_ASSERT(n() <= gf.order(),
                "RS codeword longer than field order");
    const unsigned lanes = 64 / laneBits;
    regWords = 1;
    while (regWords * lanes < checkSymbols)
        regWords *= 2;
    NVCK_ASSERT(regWords <= kMaxRegisterWords,
                "RS check symbols exceed the remainder register");
    lanePad = regWords * lanes - checkSymbols;

    // Narrow-sense generator: g(x) = prod_{i=1}^{r} (x - alpha^i).
    GfPoly gen = GfPoly::constant(1);
    for (unsigned i = 1; i <= checkSymbols; ++i)
        gen = GfPoly::mul(gf, gen, GfPoly({gf.alphaPow(i), 1}));

    // LFSR taps: the low generator coefficients (monic top dropped).
    genLog.resize(checkSymbols);
    for (unsigned i = 0; i < checkSymbols; ++i)
        genLog[i] = gen.coeff(i) != 0
                        ? static_cast<std::int32_t>(gf.log(gen.coeff(i)))
                        : -1;

    // Chien-search strides alpha^(-j), hoisted out of the per-position
    // loop.
    chienStride.resize(checkSymbols + 1, 1);
    for (unsigned j = 1; j <= checkSymbols; ++j)
        chienStride[j] = gf.alphaPow(gf.order() - j);

    if (gf.size() > kMulTabMaxFieldSize)
        return;
    const std::uint32_t size = gf.size();
    genTab.assign(static_cast<std::size_t>(size) * regWords, 0);
    for (std::uint32_t f = 1; f < size; ++f)
        tapRow(f, &genTab[static_cast<std::size_t>(f) * regWords]);
    synMulTab.assign(static_cast<std::size_t>(checkSymbols) * size, 0);
    for (unsigned j = 1; j <= checkSymbols; ++j) {
        const GfElem point = gf.alphaPow(j);
        GfElem *tab = &synMulTab[static_cast<std::size_t>(j - 1) * size];
        for (std::uint32_t a = 1; a < size; ++a)
            tab[a] = gf.mul(a, point);
    }
}

void
RsCodec::unpack(const Register &reg, GfElem *out) const
{
    const std::uint64_t mask = (std::uint64_t{1} << laneBits) - 1;
    for (unsigned j = 0; j < checkSymbols; ++j) {
        const unsigned bit = (j + lanePad) * laneBits;
        out[j] = static_cast<GfElem>((reg[bit / 64] >> (bit % 64)) & mask);
    }
}

void
RsCodec::addSymbol(Register &reg, unsigned j, GfElem v) const
{
    const unsigned bit = (j + lanePad) * laneBits;
    reg[bit / 64] ^= std::uint64_t{v} << (bit % 64);
}

void
RsCodec::tapRow(GfElem fb, std::uint64_t *row) const
{
    Register taps{};
    const std::uint32_t lf = gf.log(fb);
    for (unsigned j = 0; j < checkSymbols; ++j)
        if (genLog[j] >= 0)
            addSymbol(taps, j,
                      gf.expSum(lf, static_cast<std::uint32_t>(genLog[j])));
    std::copy(taps.begin(), taps.begin() + regWords, row);
}

template <unsigned W>
RsCodec::Register
RsCodec::divideWords(std::span<const GfElem> high) const
{
    // Synthetic division by the monic generator, one symbol per step:
    // the feedback is the incoming symbol XOR the register's top lane,
    // the register shifts up one lane, and the feedback's tap row
    // (f * g_j in lane j) is XORed in. Small fields read the row from
    // genTab (row 0 is zero, so no branch); larger ones pack it
    // through log/exp.
    const unsigned lb = laneBits;
    const unsigned top = 64 - lb;
    const std::uint64_t *tab = genTab.empty() ? nullptr : genTab.data();
    std::uint64_t acc[W] = {};
    for (std::size_t i = high.size(); i-- > 0;) {
        const GfElem fb =
            high[i] ^ static_cast<GfElem>(acc[W - 1] >> top);
        for (unsigned w = W - 1; w > 0; --w)
            acc[w] = (acc[w] << lb) | (acc[w - 1] >> top);
        acc[0] <<= lb;
        std::uint64_t packed[W] = {};
        const std::uint64_t *row = packed;
        if (tab) {
            row = tab + static_cast<std::size_t>(fb) * W;
        } else if (fb != 0) {
            tapRow(fb, packed);
        } else {
            continue;
        }
        for (unsigned w = 0; w < W; ++w)
            acc[w] ^= row[w];
    }
    Register reg{};
    std::copy(acc, acc + W, reg.begin());
    return reg;
}

RsCodec::Register
RsCodec::divide(std::span<const GfElem> high) const
{
    switch (regWords) {
      case 1: return divideWords<1>(high);
      case 2: return divideWords<2>(high);
      case 4: return divideWords<4>(high);
      default: return divideWords<kMaxRegisterWords>(high);
    }
}

RsCodec::Register
RsCodec::reduce(std::span<const GfElem> cw) const
{
    // cw(x) = d(x) * x^r + p(x) with deg p < r, so
    // cw mod g = (d(x) * x^r mod g) + p(x).
    Register reg = divide(cw.subspan(checkSymbols));
    for (unsigned j = 0; j < checkSymbols; ++j)
        addSymbol(reg, j, cw[j]);
    return reg;
}

std::vector<GfElem>
RsCodec::encode(std::span<const GfElem> data) const
{
    NVCK_ASSERT(data.size() == dataSymbols, "RS encode: bad data length");
    // Systematic: codeword(x) = d(x) * x^r + (d(x) * x^r mod g(x)).
    std::vector<GfElem> codeword(n(), 0);
    unpack(divide(data), codeword.data());
    std::copy(data.begin(), data.end(),
              codeword.begin() + checkSymbols);
    return codeword;
}

void
RsCodec::reencode(std::span<GfElem> codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "RS reencode: bad length");
    unpack(divide(codeword.subspan(checkSymbols)), codeword.data());
}

std::vector<GfElem>
RsCodec::extractData(std::span<const GfElem> cw) const
{
    NVCK_ASSERT(cw.size() == n(), "RS extractData: bad length");
    return std::vector<GfElem>(cw.begin() + checkSymbols, cw.end());
}

std::vector<GfElem>
RsCodec::syndromesOf(const Register &rem) const
{
    // S_j = cw(alpha^j) = R(alpha^j) because g(alpha^j) = 0, stored at
    // index j-1: a Horner fold over the r remainder symbols. Small
    // fields take each multiply-by-alpha^j as one table lookup (the
    // accumulator indexes the stepper row directly).
    GfElem coeff[kMaxRegisterWords * 8] = {};
    unpack(rem, coeff);
    std::vector<GfElem> syn(checkSymbols, 0);
    const std::uint32_t size = gf.size();
    for (unsigned j = 1; j <= checkSymbols; ++j) {
        GfElem acc = 0;
        if (!synMulTab.empty()) {
            const GfElem *tab =
                &synMulTab[static_cast<std::size_t>(j - 1) * size];
            for (unsigned i = checkSymbols; i-- > 0;)
                acc = tab[acc] ^ coeff[i];
        } else {
            const GfElem point = gf.alphaPow(j);
            for (unsigned i = checkSymbols; i-- > 0;)
                acc = Gf2m::add(gf.mul(acc, point), coeff[i]);
        }
        syn[j - 1] = acc;
    }
    return syn;
}

std::vector<GfElem>
RsCodec::syndromes(std::span<const GfElem> cw) const
{
    NVCK_ASSERT(cw.size() == n(), "RS syndromes: bad length");
    return syndromesOf(reduce(cw));
}

bool
RsCodec::isCodeword(std::span<const GfElem> codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "RS isCodeword: bad length");
    return reduce(codeword) == Register{};
}

RsDecodeResult
RsCodec::decode(std::span<GfElem> codeword,
                std::span<const std::uint32_t> erasures,
                int max_errors) const
{
    NVCK_ASSERT(codeword.size() == n(), "RS decode: bad length");
    RsDecodeResult result;

    const unsigned num_erasures = static_cast<unsigned>(erasures.size());
    if (num_erasures > checkSymbols) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    const Register rem = reduce(codeword);
    if (rem == Register{}) {
        result.status = DecodeStatus::Clean;
        return result;
    }
    const std::vector<GfElem> syn = syndromesOf(rem);

    // Erasure locator Gamma(x) = prod (1 - X_l x).
    GfPoly lambda = GfPoly::constant(1);
    for (std::uint32_t pos : erasures) {
        NVCK_ASSERT(pos < n(), "erasure position out of range");
        lambda = GfPoly::mul(
            gf, lambda, GfPoly({1, gf.alphaPow(pos)}));
    }
    GfPoly b = lambda;

    // Berlekamp-Massey over the remaining degrees of freedom.
    unsigned el = num_erasures;
    for (unsigned step = num_erasures + 1; step <= checkSymbols; ++step) {
        GfElem disc = 0;
        for (unsigned i = 0; i < step; ++i) {
            const GfElem li = lambda.coeff(i);
            if (li != 0)
                disc ^= gf.mul(li, syn[step - i - 1]);
        }
        if (disc == 0) {
            b = GfPoly::mul(gf, b, GfPoly::monomial(1, 1));
            continue;
        }
        const GfPoly shifted =
            GfPoly::mul(gf, b, GfPoly::monomial(disc, 1));
        const GfPoly next = GfPoly::add(lambda, shifted);
        if (2 * el <= step + num_erasures - 1) {
            el = step + num_erasures - el;
            b = GfPoly::scale(gf, lambda, gf.inv(disc));
        } else {
            b = GfPoly::mul(gf, b, GfPoly::monomial(1, 1));
        }
        lambda = next;
    }

    const int nu = lambda.degree();
    if (nu < 0 || static_cast<unsigned>(nu) != el ||
        2 * (el - num_erasures) + num_erasures > checkSymbols) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    const unsigned num_errors = el - num_erasures;
    if (max_errors >= 0 &&
        num_errors > static_cast<unsigned>(max_errors)) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    // Chien search over the shortened positions: term[j] tracks
    // lambda_j * alpha^(-i*j), stepped by the precomputed strides
    // instead of re-evaluating lambda at alpha^(-i) per position.
    std::vector<std::uint32_t> positions;
    {
        std::vector<GfElem> term(static_cast<unsigned>(nu) + 1);
        for (unsigned j = 0; j <= static_cast<unsigned>(nu); ++j)
            term[j] = lambda.coeff(j);
        for (unsigned i = 0; i < n(); ++i) {
            GfElem sum = 0;
            for (unsigned j = 0; j <= static_cast<unsigned>(nu); ++j)
                sum ^= term[j];
            if (sum == 0)
                positions.push_back(i);
            for (unsigned j = 1; j <= static_cast<unsigned>(nu); ++j)
                term[j] = gf.mul(term[j], chienStride[j]);
        }
    }
    if (positions.size() != static_cast<std::size_t>(nu)) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    // Forney: e_i = Omega(X_i^{-1}) / Lambda'(X_i^{-1}) for fcr = 1.
    GfPoly syn_poly;
    for (unsigned j = 0; j < checkSymbols; ++j)
        syn_poly.setCoeff(j, syn[j]);
    const GfPoly omega = GfPoly::truncate(
        GfPoly::mul(gf, syn_poly, lambda), checkSymbols);
    const GfPoly lambda_prime = GfPoly::derivative(lambda);

    std::vector<GfElem> magnitudes(positions.size());
    for (std::size_t idx = 0; idx < positions.size(); ++idx) {
        const GfElem x_inv =
            gf.alphaPow((gf.order() - positions[idx]) % gf.order());
        const GfElem denom = lambda_prime.eval(gf, x_inv);
        if (denom == 0) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
        magnitudes[idx] = gf.div(omega.eval(gf, x_inv), denom);
    }

    // Validate magnitudes before touching the codeword: a zero
    // magnitude at a non-erased position means "error with no value",
    // which signals an inconsistent (uncorrectable) pattern.
    for (std::size_t idx = 0; idx < positions.size(); ++idx) {
        const bool is_erasure =
            std::find(erasures.begin(), erasures.end(), positions[idx]) !=
            erasures.end();
        if (magnitudes[idx] == 0 && !is_erasure) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
    }

    unsigned applied = 0;
    unsigned applied_errors = 0;
    for (std::size_t idx = 0; idx < positions.size(); ++idx) {
        if (magnitudes[idx] == 0)
            continue; // erased position happened to be correct
        const bool is_erasure =
            std::find(erasures.begin(), erasures.end(), positions[idx]) !=
            erasures.end();
        codeword[positions[idx]] ^= magnitudes[idx];
        ++applied;
        if (!is_erasure)
            ++applied_errors;
        result.positions.push_back(positions[idx]);
    }

    result.status = DecodeStatus::Corrected;
    result.corrections = applied;
    result.errorCorrections = applied_errors;
    return result;
}

} // namespace nvck
