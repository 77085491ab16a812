/**
 * @file
 * End-to-end uncorrectable-error model for the proposal: combines the
 * VLEW (boot-time) and per-block RS (runtime) tiers into the UE and
 * SDC probabilities the paper's reliability targets constrain
 * (Section III: < 1e-15 UE and < 1e-17 SDC per block at any instant),
 * plus the chipkill value proposition — the paper cites Sridharan's
 * field study for a ~40x reliability gain from chip-failure coverage.
 */

#ifndef NVCK_RELIABILITY_UE_MODEL_HH
#define NVCK_RELIABILITY_UE_MODEL_HH

#include "ecc/code_params.hh"

namespace nvck {

/** Reliability summary of one operating point. */
struct ReliabilityPoint
{
    double rber = 0.0;
    /** P(one VLEW exceeds its 22-bit correction budget). */
    double vlewFailureProb = 0.0;
    /** P(a 64B block is uncorrectable at boot) — any covering VLEW
     *  fails AND the RS erasure budget cannot absorb it. */
    double blockUeBoot = 0.0;
    /** P(a block read is silently miscorrected at runtime). */
    double blockSdcRuntime = 0.0;
    /** Fraction of runtime reads rejecting the RS shortcut. */
    double vlewFallbackFraction = 0.0;
};

/**
 * Evaluate the proposal at a given RBER (boot-time accumulation for
 * the UE numbers; the same rate is used for the runtime SDC terms, so
 * pass the runtime rate when studying runtime behaviour).
 */
ReliabilityPoint evaluateProposal(double rber,
                                  const ProposalParams &p =
                                      ProposalParams{});

/**
 * Largest time-without-refresh (seconds) a technology tolerates while
 * keeping the per-block boot UE under @p ue_target. Binary-searches
 * the technology's RBER-vs-time curve; the paper's design point is a
 * week (3-bit PCM) to a year (ReRAM).
 */
double maxOutageSeconds(int tech /* MemTech as int to avoid include */,
                        double ue_target);

/**
 * Chipkill value: ratio of the block-failure probability without chip
 * protection (a chip failure is an unrecoverable event for the bits it
 * holds) to the proposal's (chip failures absorbed by erasures) given
 * a per-chip failure probability over the deployment horizon. With
 * realistic chip FIT rates this lands near the ~40x the paper cites.
 */
double chipkillGain(double chip_failure_prob, double bit_ue_prob);

} // namespace nvck

#endif // NVCK_RELIABILITY_UE_MODEL_HH
