/**
 * @file
 * Crash-point injection harness for the XOR/EUR write path.
 *
 * The paper's write protocol (Section V-D) leaves a window between the
 * XOR-summed data burst (applied inside the chips at burst time) and
 * the code-bit delta drain (held in the volatile EUR until row close).
 * A power cut inside that window leaves the media with new data but
 * stale BCH/RS code bits — or, for a cut mid-burst, with only some
 * chips having latched the data delta at all.
 *
 * CrashInjector drives the bit-accurate rank models through every such
 * window: it snapshots the persistent media image, applies a torn
 * write shaped by an enumerated CrashPoint, optionally kills a chip at
 * the same instant, runs the post-crash recovery pass
 * (PmRank::crashRecovery / DegradedRank::scrub), and checks the
 * ground-truth oracle:
 *
 *   every block must read back as the OLD value, the NEW value, or an
 *   explicitly reported UE — never silent garbage, and a block whose
 *   write completed before the cut (ADR-durable) must never roll back.
 *
 * crashCampaign() fans randomized trials across the ParallelSweep
 * driver; per-point Rng substreams keep the emitted table
 * byte-identical for any worker count.
 */

#ifndef NVCK_SIM_CRASH_HH
#define NVCK_SIM_CRASH_HH

#include <array>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <span>
#include <vector>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "common/rng.hh"
#include "sim/campaign.hh"

namespace nvck {

/** Enumerated power-cut sites along the write path. */
enum class CrashPoint
{
    /** Cut mid-burst: only some chips latched the XOR data delta;
     *  nothing has drained from any EUR yet. */
    MidXorWrite,
    /** Cut after the burst, before row close: every chip applied the
     *  data delta but every code-bit delta still sat in the EUR. */
    MidEurCoalesce,
    /** Cut during the row-close drain: the code delta reached a strict
     *  subset of the chips (drain retires EUR slots one at a time). */
    MidRowCloseDrain,
    /** Cut between blocks of a multi-block persist: earlier blocks are
     *  fully durable, the crash block is torn at one of the three
     *  sites above, later blocks never reached the media. */
    MidMultiBlockPersist,
};

/** Stable labels for tables, --filter selection, and logs, in
 *  CrashPoint order. */
constexpr const char *crashPointNames[] = {
    "mid-xor-write", "mid-eur-coalesce", "mid-row-close-drain",
    "mid-multi-block-persist"};
constexpr unsigned numCrashPoints = std::size(crashPointNames);

inline const char *
crashPointName(CrashPoint point)
{
    return crashPointNames[static_cast<unsigned>(point)];
}

/** Tallies from a batch of crash trials (or one trial). */
struct CrashTally : TallyBase<CrashTally>
{
    std::uint64_t trials = 0;
    /** Torn block settled on the pre-crash value (rolled back). */
    std::uint64_t tornOld = 0;
    /** Torn block settled on the intended value (rolled forward). */
    std::uint64_t tornNew = 0;
    /** Torn block reported as an explicit, poisoned UE. */
    std::uint64_t tornUe = 0;
    /** Trials that also lost a whole chip at the cut. */
    std::uint64_t chipKills = 0;
    /** Untouched/durable blocks sacrificed to a reported UE. */
    std::uint64_t collateralUe = 0;
    /** Oracle violations: silent garbage or a durable write rolled
     *  back. Must be zero. */
    std::uint64_t violations = 0;

    static std::span<const TallyField<CrashTally>> fields();
};

/**
 * Random chip subset as a bitmask over @p chips chips. The fix-ups
 * keep the mask meaningful for a torn phase: a burst that latched
 * nowhere is no write at all, and a mask covering every chip is a
 * completed phase, not a torn one.
 */
std::uint16_t randomChipMask(Rng &rng, unsigned chips, bool forbid_empty,
                             bool forbid_full);

/**
 * Generate the intended new 64B value of a write: either a dense
 * rewrite (fresh random bytes) or a sparse update (1-3 bit flips, the
 * shape a VLEW rollback can undo). Always differs from @p old_data.
 */
void makePayload(Rng &rng, const std::uint8_t *old_data,
                 std::uint8_t *out);

/** Shape knobs for one randomized trial. */
struct CrashTrialOptions
{
    /** Max blocks in a MidMultiBlockPersist burst (>= 2). */
    unsigned maxBlocks = 4;
    /** Probability that a whole chip dies at the same cut. */
    double chipKillFraction = 0.12;
    /** RS acceptance threshold forwarded to recovery/reads. */
    unsigned threshold = 2;
};

/**
 * Drives one healthy rank through randomized power cuts. The pristine
 * media image is captured once; every trial restores it, applies a
 * torn write shaped by the requested CrashPoint, runs
 * crashRecovery(), and checks the oracle over the whole rank.
 */
class CrashInjector
{
  public:
    /** Snapshot @p rank (already initialized) as the pristine image. */
    explicit CrashInjector(PmRank &rank);

    /** Run one randomized trial at @p point. */
    CrashTally runTrial(CrashPoint point, Rng &rng,
                        const CrashTrialOptions &opts);

  private:
    PmRank &rank;
    RankSnapshot pristine;
    /** Pristine 64B of every block, for the untouched-block oracle. */
    std::vector<std::array<std::uint8_t, blockBytes>> pristineBlocks;
};

/**
 * Degraded-mode counterpart: a rank that already lost a chip takes
 * the same torn writes (data durable, code drain maybe cut) and must
 * recover through the striped-VLEW scrub alone.
 */
class DegradedCrashInjector
{
  public:
    explicit DegradedCrashInjector(DegradedRank &rank);

    CrashTally runTrial(Rng &rng);

  private:
    DegradedRank &rank;
    DegradedSnapshot pristine;
    std::vector<std::array<std::uint8_t, blockBytes>> pristineBlocks;
};

/** Campaign shape; the defaults meet the acceptance bar. */
struct CrashCampaignConfig
{
    std::uint64_t seed = 2018;
    /** Healthy-rank trials, split evenly across the four points. */
    std::uint64_t trials = 10000;
    /** Degraded-mode trials on top of @ref trials. */
    std::uint64_t degradedTrials = 1000;
    /** Rank capacity in 64B blocks (multiple of the VLEW span, 32). */
    unsigned rankBlocks = 64;
    /** Trials per sweep point (parallel work-item granularity). */
    unsigned chunkTrials = 125;
    CrashTrialOptions trial;
};

/** Per crash point, then the degraded-eur-window row. */
using CrashCampaignTotals = CampaignTotals<CrashTally>;

/**
 * Run the randomized campaign as a ParallelSweep, print the per-point
 * table to @p os, and return the tallies. Output is byte-identical
 * for any worker count at a fixed seed.
 */
CrashCampaignTotals crashCampaign(std::ostream &os,
                                  const SweepOptions &opts,
                                  const CrashCampaignConfig &cfg);

} // namespace nvck

#endif // NVCK_SIM_CRASH_HH
