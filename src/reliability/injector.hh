/**
 * @file
 * Monte-Carlo fault injection on the *real* codecs. Validates the
 * analytical models (Fig 7's error distribution, the appendix's
 * miscorrection behaviour, erasure correction under chip failure) at
 * RBERs where event rates are measurable in simulation.
 */

#ifndef NVCK_RELIABILITY_INJECTOR_HH
#define NVCK_RELIABILITY_INJECTOR_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/stats.hh"
#include "ecc/bch.hh"
#include "ecc/rs.hh"

namespace nvck {

/** Aggregated outcomes of an injection campaign. */
struct InjectionReport
{
    std::uint64_t trials = 0;
    std::uint64_t clean = 0;          //!< zero syndrome
    std::uint64_t corrected = 0;      //!< fixed, matches ground truth
    std::uint64_t detected = 0;       //!< reported uncorrectable
    std::uint64_t miscorrected = 0;   //!< silent data corruption
    Histogram errorCount{32};         //!< injected symbol/bit errors

    double rate(std::uint64_t n) const
    {
        return trials ? static_cast<double>(n) / trials : 0.0;
    }

    /**
     * Fold another report in (pure counter addition, so per-worker
     * partial reports merge to the serial totals in any order).
     */
    void
    merge(const InjectionReport &other)
    {
        trials += other.trials;
        clean += other.clean;
        corrected += other.corrected;
        detected += other.detected;
        miscorrected += other.miscorrected;
        errorCount.merge(other.errorCount);
    }
};

/** Campaign settings for the per-block RS code. */
struct RsCampaign
{
    double rber = 2e-4;      //!< per-bit error probability
    int maxErrors = -1;      //!< decode cap (-1 = full capability)
    int failedChip = -1;     //!< >= 0: garble that chip's symbols and
                             //!< pass them as erasures
    unsigned chipBeatBytes = 8;
    std::uint64_t seed = 1;
};

/**
 * Run trials [@p first, @p last) of an RS injection campaign against a
 * codec. Trial i draws from the substream derived from (c.seed, i), so
 * reports of disjoint ranges merge to the report of their union: a
 * caller may split the campaign into ParallelSweep points of any size
 * and get the same totals for any worker count.
 */
InjectionReport injectRs(const RsCodec &codec, const RsCampaign &c,
                         std::uint64_t first, std::uint64_t last);

/** Campaign settings for a BCH codec (e.g. the VLEW). */
struct BchCampaign
{
    double rber = 1e-3;
    std::uint64_t seed = 1;
};

/** Run trials [@p first, @p last) of a BCH injection campaign (same
 *  contract as injectRs: trial i draws substream (c.seed, i)). */
InjectionReport injectBch(const BchCodec &codec, const BchCampaign &c,
                          std::uint64_t first, std::uint64_t last);

} // namespace nvck

#endif // NVCK_RELIABILITY_INJECTOR_HH
