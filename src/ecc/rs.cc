#include "rs.hh"

#include <algorithm>

#include "common/log.hh"

namespace nvck {

namespace {

/** Field-size cap under which the per-feedback mul-tables are built:
 *  2^m x r GfElems per table, 32 KiB per table at m = 10, r = 8. */
constexpr std::uint32_t kMulTabMaxFieldSize = 1u << 10;

} // namespace

RsCodec::RsCodec(unsigned data_symbols, unsigned check_symbols,
                 unsigned field_degree)
    : dataSymbols(data_symbols),
      checkSymbols(check_symbols),
      gf(field_degree)
{
    NVCK_ASSERT(checkSymbols >= 1, "RS needs at least one check symbol");
    NVCK_ASSERT(n() <= gf.order(),
                "RS codeword longer than field order");
    // Narrow-sense generator: g(x) = prod_{i=1}^{r} (x - alpha^i).
    GfPoly gen = GfPoly::constant(1);
    for (unsigned i = 1; i <= checkSymbols; ++i)
        gen = GfPoly::mul(gf, gen, GfPoly({gf.alphaPow(i), 1}));

    // LFSR taps: the low generator coefficients and their logs.
    genLow.resize(checkSymbols);
    genLog.resize(checkSymbols);
    for (unsigned i = 0; i < checkSymbols; ++i) {
        genLow[i] = gen.coeff(i);
        genLog[i] = genLow[i] != 0
                        ? static_cast<std::int32_t>(gf.log(genLow[i]))
                        : -1;
    }

    // Chien-search strides alpha^(-j), hoisted out of the per-position
    // loop.
    chienStride.resize(checkSymbols + 1, 1);
    for (unsigned j = 1; j <= checkSymbols; ++j)
        chienStride[j] = gf.alphaPow(gf.order() - j);

    buildMulTables();
}

void
RsCodec::buildMulTables()
{
    if (gf.size() > kMulTabMaxFieldSize)
        return;
    const std::uint32_t size = gf.size();
    genMulTab.assign(static_cast<std::size_t>(size) * checkSymbols, 0);
    for (std::uint32_t f = 1; f < size; ++f) {
        GfElem *row = &genMulTab[static_cast<std::size_t>(f) *
                                 checkSymbols];
        for (unsigned i = 0; i < checkSymbols; ++i)
            row[i] = gf.mul(f, genLow[i]);
    }
    synMulTab.assign(static_cast<std::size_t>(checkSymbols) * size, 0);
    for (unsigned j = 1; j <= checkSymbols; ++j) {
        const GfElem point = gf.alphaPow(j);
        GfElem *tab = &synMulTab[static_cast<std::size_t>(j - 1) * size];
        for (std::uint32_t a = 1; a < size; ++a)
            tab[a] = gf.mul(a, point);
    }
}

std::vector<GfElem>
RsCodec::encode(const std::vector<GfElem> &data) const
{
    NVCK_ASSERT(data.size() == dataSymbols, "RS encode: bad data length");
    // Systematic: codeword(x) = d(x) * x^r + (d(x) * x^r mod g(x)), by
    // synthetic division of d(x) * x^r by the monic generator: one
    // feedback symbol per data symbol, taps applied from a mul-table
    // row (small fields) or via log/exp batching (one log per feedback
    // instead of one per tap product).
    std::vector<GfElem> parity(checkSymbols, 0);
    for (unsigned i = dataSymbols; i-- > 0;) {
        const GfElem feedback = data[i] ^ parity[checkSymbols - 1];
        for (unsigned w = checkSymbols; w-- > 1;)
            parity[w] = parity[w - 1];
        parity[0] = 0;
        if (feedback == 0)
            continue;
        if (!genMulTab.empty()) {
            const GfElem *row =
                &genMulTab[static_cast<std::size_t>(feedback) *
                           checkSymbols];
            for (unsigned w = 0; w < checkSymbols; ++w)
                parity[w] ^= row[w];
        } else {
            const std::uint32_t lf = gf.log(feedback);
            for (unsigned w = 0; w < checkSymbols; ++w)
                if (genLog[w] >= 0)
                    parity[w] ^= gf.expSum(
                        lf, static_cast<std::uint32_t>(genLog[w]));
        }
    }

    std::vector<GfElem> codeword(n(), 0);
    std::copy(parity.begin(), parity.end(), codeword.begin());
    std::copy(data.begin(), data.end(),
              codeword.begin() + checkSymbols);
    return codeword;
}

void
RsCodec::reencode(std::vector<GfElem> &codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "RS reencode: bad length");
    const auto fresh = encode(extractData(codeword));
    std::copy(fresh.begin(), fresh.begin() + checkSymbols,
              codeword.begin());
}

std::vector<GfElem>
RsCodec::extractData(const std::vector<GfElem> &cw) const
{
    NVCK_ASSERT(cw.size() == n(), "RS extractData: bad length");
    return std::vector<GfElem>(cw.begin() + checkSymbols, cw.end());
}

std::vector<GfElem>
RsCodec::syndromes(const std::vector<GfElem> &cw) const
{
    // S_j = R(alpha^j), j = 1..r, stored at index j-1, by Horner steps.
    // Small fields take each multiply-by-alpha^j as one table lookup
    // (the accumulator indexes the stepper row directly).
    std::vector<GfElem> syn(checkSymbols, 0);
    const std::uint32_t size = gf.size();
    for (unsigned j = 1; j <= checkSymbols; ++j) {
        GfElem acc = 0;
        if (!synMulTab.empty()) {
            const GfElem *tab =
                &synMulTab[static_cast<std::size_t>(j - 1) * size];
            for (std::size_t i = cw.size(); i-- > 0;)
                acc = tab[acc] ^ cw[i];
        } else {
            const GfElem point = gf.alphaPow(j);
            for (std::size_t i = cw.size(); i-- > 0;)
                acc = Gf2m::add(gf.mul(acc, point), cw[i]);
        }
        syn[j - 1] = acc;
    }
    return syn;
}

bool
RsCodec::isCodeword(const std::vector<GfElem> &codeword) const
{
    const auto syn = syndromes(codeword);
    return std::all_of(syn.begin(), syn.end(),
                       [](GfElem s) { return s == 0; });
}

RsDecodeResult
RsCodec::decode(std::vector<GfElem> &codeword,
                const std::vector<std::uint32_t> &erasures,
                int max_errors) const
{
    NVCK_ASSERT(codeword.size() == n(), "RS decode: bad length");
    RsDecodeResult result;

    const unsigned num_erasures = static_cast<unsigned>(erasures.size());
    if (num_erasures > checkSymbols) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    const std::vector<GfElem> syn = syndromes(codeword);
    const bool syndrome_zero =
        std::all_of(syn.begin(), syn.end(),
                    [](GfElem s) { return s == 0; });
    if (syndrome_zero) {
        result.status = DecodeStatus::Clean;
        return result;
    }

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
