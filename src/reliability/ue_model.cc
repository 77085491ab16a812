#include "ue_model.hh"

#include <cmath>

#include "common/log.hh"
#include "reliability/binomial.hh"
#include "reliability/error_model.hh"
#include "reliability/sdc_model.hh"

namespace nvck {

ReliabilityPoint
evaluateProposal(double rber, const ProposalParams &p)
{
    ReliabilityPoint out;
    out.rber = rber;

    // One VLEW: k data bits plus the paper-accounted code bits all
    // sit in NVRAM cells and accumulate errors.
    const unsigned k_bits = p.vlewDataBytes * 8;
    const unsigned n_bits = k_bits + p.vlewCodeBytes * 8;
    out.vlewFailureProb = binomialTail(n_bits, p.vlewT + 1, rber);

    // A block is covered by one VLEW per chip (8 data + 1 parity).
    // A single failed VLEW looks like a chip failure and is absorbed
    // by the RS erasure budget; boot-time UE needs two or more of the
    // nine covering VLEWs to fail.
    const unsigned chips = p.dataChips + p.parityChips;
    out.blockUeBoot =
        binomialTail(chips, 2, out.vlewFailureProb);

    SdcInputs sdc;
    sdc.rber = rber;
    sdc.dataSymbols = p.rsDataBytes;
    sdc.checkSymbols = p.rsCheckBytes;
    out.blockSdcRuntime = sdcRate(sdc, p.runtimeThreshold);
    out.vlewFallbackFraction =
        vlewFallbackFraction(sdc, p.runtimeThreshold);
    return out;
}

double
maxOutageSeconds(int tech, double ue_target)
{
    const MemTech technology = static_cast<MemTech>(tech);
    double lo = 1.0, hi = secondsPerYear;
    // If even a year is fine, report the cap; if one second is not,
    // report zero.
    if (evaluateProposal(rberAfter(technology, hi)).blockUeBoot <=
        ue_target)
        return hi;
    if (evaluateProposal(rberAfter(technology, lo)).blockUeBoot >
        ue_target)
        return 0.0;
    for (int iter = 0; iter < 64; ++iter) {
        const double mid = std::sqrt(lo * hi);
        const double ue =
            evaluateProposal(rberAfter(technology, mid)).blockUeBoot;
        if (ue <= ue_target)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

double
chipkillGain(double chip_failure_prob, double bit_ue_prob)
{
    NVCK_ASSERT(chip_failure_prob >= 0.0 && chip_failure_prob <= 1.0,
                "probability out of range");
    NVCK_ASSERT(bit_ue_prob >= 0.0 && bit_ue_prob <= 1.0,
                "probability out of range");
    // Without chip protection, either event loses data; with it, only
    // bit-level UEs remain (a single chip failure is corrected).
    const double without = chip_failure_prob + bit_ue_prob -
                           chip_failure_prob * bit_ue_prob;
    const double with_chipkill = bit_ue_prob;
    if (with_chipkill <= 0.0)
        return INFINITY;
    return without / with_chipkill;
}

} // namespace nvck
