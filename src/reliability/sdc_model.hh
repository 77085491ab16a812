/**
 * @file
 * The paper's appendix model for silent-data-corruption (miscorrection)
 * probability of the per-block RS code, plus the derived runtime rates
 * quoted in Section V-C: the SDC rate when correcting the full t = 4
 * capability (3.2e-11 at 2e-4 RBER) versus the thresholded t = 2
 * (3.3e-22), and the fraction of reads that must fall back to VLEW
 * correction.
 */

#ifndef NVCK_RELIABILITY_SDC_MODEL_HH
#define NVCK_RELIABILITY_SDC_MODEL_HH

namespace nvck {

/** Inputs describing the per-block RS code and the channel. */
struct SdcInputs
{
    unsigned dataSymbols = 64;  //!< k, data bytes per block
    unsigned checkSymbols = 8;  //!< r, check bytes per block
    unsigned symbolBits = 8;    //!< m, bits per RS symbol
    double rber = 2e-4;         //!< raw bit error rate
};

/**
 * Term A: probability that a received word contains at least
 * n_th = (d_min - t) symbol errors, the minimum needed to land within
 * distance t of a *different* codeword.
 */
double sdcTermA(const SdcInputs &in, unsigned t);

/**
 * Term B: probability that an uncorrectable noncodeword lies within
 * Hamming distance t of some unintended codeword:
 * C(n, t) * 2^(m t) * 2^(m k) / 2^(m n).
 */
double sdcTermB(const SdcInputs &in, unsigned t);

/** SDC rate = Term A * Term B when correcting up to @p t symbols. */
double sdcRate(const SdcInputs &in, unsigned t);

/**
 * Fraction of reads whose opportunistic RS correction is rejected
 * (more than @p threshold symbol errors present), forcing a VLEW
 * fetch. Section V-C quotes ~0.018% on average.
 */
double vlewFallbackFraction(const SdcInputs &in, unsigned threshold);

/** Probability a block read contains at least one bit error. */
double blockErrorFraction(const SdcInputs &in);

} // namespace nvck

#endif // NVCK_RELIABILITY_SDC_MODEL_HH
