#include "sdc_model.hh"

#include <cmath>

#include "common/log.hh"
#include "reliability/binomial.hh"

namespace nvck {

double
sdcTermA(const SdcInputs &in, unsigned t)
{
    const unsigned n = in.dataSymbols + in.checkSymbols;
    const unsigned dmin = in.checkSymbols + 1;
    NVCK_ASSERT(t < dmin, "t beyond code distance");
    const unsigned n_th = dmin - t;
    const double p_sym = symbolErrorProb(in.rber, in.symbolBits);
    return binomialTail(n, n_th, p_sym);
}

double
sdcTermB(const SdcInputs &in, unsigned t)
{
    const unsigned n = in.dataSymbols + in.checkSymbols;
    // C(n, t) * 2^(m t) * 2^(m k) / 2^(m n) = C(n, t) * 2^(-m (r - t)).
    const double log2_term =
        static_cast<double>(in.symbolBits) *
        (static_cast<double>(t) - static_cast<double>(in.checkSymbols));
    return std::exp(logChoose(n, t) + log2_term * std::log(2.0));
}

double
sdcRate(const SdcInputs &in, unsigned t)
{
    return sdcTermA(in, t) * sdcTermB(in, t);
}

double
vlewFallbackFraction(const SdcInputs &in, unsigned threshold)
{
    const unsigned n = in.dataSymbols + in.checkSymbols;
    const double p_sym = symbolErrorProb(in.rber, in.symbolBits);
    return binomialTail(n, threshold + 1, p_sym);
}

double
blockErrorFraction(const SdcInputs &in)
{
    const unsigned n_bits =
        (in.dataSymbols + in.checkSymbols) * in.symbolBits;
    return symbolErrorProb(in.rber, n_bits);
}

} // namespace nvck
