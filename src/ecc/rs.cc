#include "rs.hh"

#include <algorithm>

#include "common/log.hh"

namespace nvck {

namespace {

/** Field-size cap under which the per-feedback tap rows and syndrome
 *  steppers are built: 16 KiB of taps at m = 10, r = 8. */
constexpr std::uint32_t kMulTabMaxFieldSize = 1u << 10;

/** A polynomial of degree <= r <= kMaxLocatorDegree, low-to-high. */
using Poly = std::array<GfElem, kMaxLocatorDegree + 1>;

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
    static_assert(kMaxRegisterWords * 8 == kMaxLocatorDegree,
                  "the decode arrays hold every check symbol");

    // Narrow-sense generator: g(x) = prod_{i=1}^{r} (x - alpha^i),
    // multiplied out in place one factor at a time.
    Poly gen{};
    gen[0] = 1;
    for (unsigned i = 1; i <= checkSymbols; ++i) {
        const GfElem root = gf.alphaPow(i);
        for (unsigned j = i; j > 0; --j)
            gen[j] = gen[j - 1] ^ gf.mul(gen[j], root);
        gen[0] = gf.mul(gen[0], root);
    }

    // LFSR taps: the low generator coefficients (monic top dropped).
    genLog.resize(checkSymbols);
    for (unsigned i = 0; i < checkSymbols; ++i)
        genLog[i] = gen[i] != 0
                        ? static_cast<std::int32_t>(gf.log(gen[i]))
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

void
RsCodec::syndromesOf(const Register &rem, GfElem *syn) const
{
    // S_j = cw(alpha^j) = R(alpha^j) because g(alpha^j) = 0, stored at
    // index j-1: a Horner fold over the r remainder symbols. Small
    // fields take each multiply-by-alpha^j as one table lookup (the
    // accumulator indexes the stepper row directly).
    GfElem coeff[kMaxLocatorDegree] = {};
    unpack(rem, coeff);
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
}

std::vector<GfElem>
RsCodec::syndromes(std::span<const GfElem> cw) const
{
    NVCK_ASSERT(cw.size() == n(), "RS syndromes: bad length");
    std::vector<GfElem> syn(checkSymbols);
    syndromesOf(reduce(cw), syn.data());
    return syn;
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
    const unsigned r = checkSymbols;

    const unsigned num_erasures = static_cast<unsigned>(erasures.size());
    if (num_erasures > r) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    const Register rem = reduce(codeword);
    if (rem == Register{}) {
        result.status = DecodeStatus::Clean;
        return result;
    }

    // Erasures ascending (Chien's order). A repeated position squares
    // a factor of the locator, which then has fewer distinct roots
    // than its degree: Uncorrectable, as the scan would find.
    std::array<std::uint32_t, kMaxLocatorDegree> erased{};
    std::copy(erasures.begin(), erasures.end(), erased.begin());
    std::sort(erased.begin(), erased.begin() + num_erasures);
    for (unsigned l = 0; l < num_erasures; ++l) {
        NVCK_ASSERT(erased[l] < n(), "erasure position out of range");
        if (l > 0 && erased[l] == erased[l - 1]) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
    }

    GfElem syn[kMaxLocatorDegree] = {};
    syndromesOf(rem, syn);

    // Erasure locator Gamma(x) = prod (1 - X_l x), built in place.
    Poly lambda{};
    lambda[0] = 1;
    for (unsigned l = 0; l < num_erasures; ++l) {
        const GfElem x = gf.alphaPow(erased[l]);
        for (unsigned j = l + 1; j > 0; --j)
            lambda[j] ^= gf.mul(lambda[j - 1], x);
    }

    // Berlekamp-Massey seeded with Gamma over the remaining degrees of
    // freedom. The correction term is disc * x^(b_shift + 1) * b; a
    // length change saves the old lambda / disc as the new b. Every
    // polynomial keeps degree <= the register length <= r.
    Poly b = lambda;
    unsigned b_shift = 0;
    unsigned el = num_erasures;
    bool saw_discrepancy = false;
    for (unsigned step = num_erasures + 1; step <= r; ++step) {
        GfElem disc = 0;
        for (unsigned i = 0; i < step; ++i)
            if (lambda[i] != 0)
                disc ^= gf.mul(lambda[i], syn[step - i - 1]);
        if (disc == 0) {
            ++b_shift;
            continue;
        }
        saw_discrepancy = true;
        const unsigned lag = b_shift + 1;
        if (2 * el <= step + num_erasures - 1) {
            // High to low, so b[j - lag] is still the old b when read
            // and b[j] takes the old lambda[j] once it is spent.
            const GfElem inv = gf.inv(disc);
            for (unsigned j = r + 1; j-- > 0;) {
                const GfElem old = lambda[j];
                if (j >= lag)
                    lambda[j] ^= gf.mul(disc, b[j - lag]);
                b[j] = gf.mul(old, inv);
            }
            el = step + num_erasures - el;
            b_shift = 0;
        } else {
            for (unsigned j = lag; j <= r; ++j)
                lambda[j] ^= gf.mul(disc, b[j - lag]);
            ++b_shift;
        }
    }

    unsigned nu = r;
    while (lambda[nu] == 0)
        --nu;
    if (nu != el || 2 * (el - num_erasures) + num_erasures > r) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    const unsigned num_errors = el - num_erasures;
    if (max_errors >= 0 &&
        num_errors > static_cast<unsigned>(max_errors)) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    // With no discrepancy lambda is Gamma, whose roots are exactly the
    // erasures. Otherwise a locator that does not split into distinct
    // linear factors has fewer than nu roots in [0, n), so it is
    // rejected before the scan. The Chien scan tracks lambda_j *
    // alpha^(-i*j) in term[j], stepped by the precomputed strides, and
    // stops at the nu-th root.
    std::array<std::uint32_t, kMaxLocatorDegree> positions = erased;
    if (saw_discrepancy) {
        if (!locatorSplits(gf, std::span(lambda.data(), nu + 1))) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
        Poly term = lambda;
        unsigned found = 0;
        for (unsigned i = 0; i < n() && found < nu; ++i) {
            GfElem sum = 0;
            for (unsigned j = 0; j <= nu; ++j)
                sum ^= term[j];
            if (sum == 0)
                positions[found++] = i;
            for (unsigned j = 1; j <= nu; ++j)
                term[j] = gf.mul(term[j], chienStride[j]);
        }
        if (found != nu) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
    }

    // Forney: e_i = Omega(X_i^{-1}) / Lambda'(X_i^{-1}) for fcr = 1,
    // with Omega = S * Lambda mod x^r and Lambda' the odd-degree terms
    // of Lambda shifted down one (the even ones vanish in
    // characteristic 2), evaluated by Horner in x^2.
    GfElem omega[kMaxLocatorDegree] = {};
    for (unsigned j = 0; j < r; ++j) {
        GfElem acc = 0;
        for (unsigned i = 0; i <= std::min(j, nu); ++i)
            acc ^= gf.mul(lambda[i], syn[j - i]);
        omega[j] = acc;
    }
    const int top_odd = static_cast<int>(nu) - 1 + static_cast<int>(nu % 2);
    GfElem magnitudes[kMaxLocatorDegree] = {};
    for (unsigned idx = 0; idx < nu; ++idx) {
        const GfElem x_inv =
            gf.alphaPow((gf.order() - positions[idx]) % gf.order());
        const GfElem x_sq = gf.mul(x_inv, x_inv);
        GfElem denom = 0;
        for (int i = top_odd; i > 0; i -= 2)
            denom = gf.mul(denom, x_sq) ^ lambda[i];
        if (denom == 0) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
        GfElem num = 0;
        for (unsigned j = r; j-- > 0;)
            num = gf.mul(num, x_inv) ^ omega[j];
        magnitudes[idx] = gf.div(num, denom);
    }

    // Validate magnitudes before touching the codeword: a zero
    // magnitude at a non-erased position means "error with no value",
    // which signals an inconsistent (uncorrectable) pattern.
    const auto is_erasure = [&](std::uint32_t pos) {
        return std::binary_search(erased.begin(),
                                  erased.begin() + num_erasures, pos);
    };
    for (unsigned idx = 0; idx < nu; ++idx) {
        if (magnitudes[idx] == 0 && !is_erasure(positions[idx])) {
            result.status = DecodeStatus::Uncorrectable;
            return result;
        }
    }

    for (unsigned idx = 0; idx < nu; ++idx) {
        if (magnitudes[idx] == 0)
            continue; // erased position happened to be correct
        codeword[positions[idx]] ^= magnitudes[idx];
        ++result.corrections;
        if (!is_erasure(positions[idx]))
            ++result.errorCorrections;
        result.positions.push_back(positions[idx]);
    }
    result.status = DecodeStatus::Corrected;
    return result;
}

} // namespace nvck
