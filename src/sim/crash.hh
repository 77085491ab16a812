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
 * (PmRank::crashRecovery / DegradedRank::scrub), and audits the whole
 * rank with the PersistOracle below: the one record of write intent
 * and the one readback judge of all four crash and RAS campaigns (this
 * one, syscrash.hh, ras.hh and spare.hh).
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

/**
 * Per-block persist-order bookkeeping. A writer records every data
 * burst (a value whose code delta is now EUR-held) and every completed
 * drain (the value settles); after recovery, audit() reads every block
 * back and counts what it means under the ADR contract:
 *
 *  - a write whose coalesced code-bit delta fully drained from the EUR
 *    ("settled") is crash-durable and must read back as exactly its
 *    value — never roll back;
 *  - a write whose data burst landed (or was flushed from the write
 *    queue by the ADR domain's stored energy) but whose code delta was
 *    still EUR-held may resolve to the last settled value, any
 *    still-pending bursted value, or an explicitly reported UE;
 *  - nothing may ever read back as silent garbage.
 */
class PersistOracle
{
  public:
    using Value = std::array<std::uint8_t, blockBytes>;

    /** What a post-recovery readback means for one block. */
    enum class Verdict
    {
        SettledOk,        //!< no pending write; exact settled value
        TornOld,          //!< pending write resolved to the settled value
        TornNew,          //!< pending write rolled forward to the latest
        TornIntermediate, //!< an earlier still-pending bursted value
        ReportedUe,       //!< explicit, reported UE (always legal)
        Violation,        //!< silent garbage or a settled write rolled back
    };

    /** Verdict counts over every block; a reported UE is torn on a
     *  pending block and collateral on a settled one. */
    struct Audit
    {
        std::uint64_t tornOld = 0;
        std::uint64_t tornNew = 0;
        std::uint64_t tornIntermediate = 0;
        std::uint64_t tornUe = 0;
        std::uint64_t collateralUe = 0;
        std::uint64_t violations = 0;
    };

    explicit PersistOracle(unsigned blocks);

    /** Set the pristine (settled) image of @p block. */
    void setBaseline(unsigned block, const std::uint8_t *value);

    /** Set @p block's pristine image to @p rank's golden copy of it. */
    template <typename Rank>
    void
    rebase(const Rank &rank, unsigned block)
    {
        rank.goldenBlock(block, settledVal[block].data());
        chains[block].clear();
    }

    /** A data burst landed: @p value is now pending (code EUR-held). */
    void recordBurst(unsigned block, const std::uint8_t *value);

    /** The block's coalesced code delta fully drained: the latest
     *  bursted value settles and the pending chain resets. */
    void recordDrain(unsigned block);

    /** True while the block has bursted-but-undrained values. */
    bool pending(unsigned block) const
    {
        return !chains[block].empty();
    }

    /** Blocks currently pending. */
    unsigned pendingCount() const;

    /** Last settled value: the image whose code bits fully drained. */
    const Value &settled(unsigned block) const { return settledVal[block]; }

    /** Latest bursted value (the settled value when not pending). */
    const Value &
    latest(unsigned block) const
    {
        return pending(block) ? chains[block].back() : settledVal[block];
    }

    Verdict classify(unsigned block, const std::uint8_t *readback,
                     bool reported_ue) const;

    /**
     * Read every block back through @p read(block, out), which fills
     * the 64B @p out and returns true for a reported UE, and count the
     * verdicts.
     */
    template <typename Read>
    Audit
    audit(Read &&read) const
    {
        Audit a;
        std::uint8_t out[blockBytes];
        for (unsigned b = 0; b < settledVal.size(); ++b) {
            switch (classify(b, out, read(b, out))) {
              case Verdict::SettledOk:
                break;
              case Verdict::TornOld:
                ++a.tornOld;
                break;
              case Verdict::TornNew:
                ++a.tornNew;
                break;
              case Verdict::TornIntermediate:
                ++a.tornIntermediate;
                break;
              case Verdict::ReportedUe:
                ++(pending(b) ? a.tornUe : a.collateralUe);
                break;
              case Verdict::Violation:
                ++a.violations;
                break;
            }
        }
        return a;
    }

  private:
    std::vector<Value> settledVal;
    /** Values bursted since the last settle, oldest first. */
    std::vector<std::vector<Value>> chains;
};

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
 * crashRecovery(), and audits the whole rank with a PersistOracle.
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
    PersistOracle oracle;
    /** The last trial's writes: the baselines a restore makes stale. */
    std::vector<unsigned> written;
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
    PersistOracle oracle;
    /** As CrashInjector::written. */
    std::vector<unsigned> written;
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
