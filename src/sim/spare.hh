/**
 * @file
 * Hot-spare chip: the serviceability half of the RAS story.
 *
 * The paper's Section V leaves a rank that lost a chip in the
 * storage-degraded striped-VLEW layout until the DIMM is serviced;
 * real chipkill deployments (the IBM chipkill lineage, Bamboo-ECC
 * style chip retirement) instead provision a spare device per rank and
 * fail over to it, restoring full code strength without downtime:
 *
 *  - **rebuild**: on a kill crossing the RasEngine drains the EUR
 *    state and, when a spare is armed, rebuilds the dead chip's lanes
 *    onto it span by span as paced events under live traffic — each
 *    span's survivors are scrubbed first (their VLEWs vouch for the
 *    beats), then the missing beats are RS-erasure-filled and the
 *    lane's VLEW code is re-encoded, the same trust rule as
 *    PmRank::bootScrub(). A span whose survivors cannot be vouched
 *    for is poisoned (reported UE), never silently version-mixed;
 *  - **repair / migrate-back**: when the operator replaces the failed
 *    device (RasEngine::chipReplaced), the spare's contents are
 *    copied back span by span through the VLEW correction path and
 *    the spare re-arms. On completion the rank is bit-identical to
 *    one that never failed (the differential test pins this);
 *  - **fallback**: a spare that itself decays mid-rebuild is
 *    abandoned and the engine falls back to the PR-9 degraded
 *    failover — no lost durable writes either way.
 *
 * Modelling rule (canonical lane storage): a lane's contents always
 * live in PmRank's chipStore; *which physical device* backs the lane
 * — original, spare, or replacement — is engine/SpareChip state.
 * Writes therefore flow through the normal XOR paths untouched, and
 * device swaps are modelled as what they change on the media: stuck
 * cells leave with the failed device (clearStuckCells), garbage stays
 * until the rebuild fills it, spare decay is injected onto the lane.
 *
 * The spareCampaign drives kill -> rebuild -> second-kill-mid-rebuild
 * -> repair -> migrate-back fault plans through live 2-core workloads
 * against the persist oracle, mirroring rasCampaign.
 */

#ifndef NVCK_SIM_SPARE_HH
#define NVCK_SIM_SPARE_HH

#include <cstdint>
#include <ostream>

#include "chipkill/pm_rank.hh"
#include "sim/ras.hh"

namespace nvck {

/**
 * Bit-level model of the rank's spare device, engaged for one failed
 * chip. One cursor walks the rank span by span, first for the rebuild
 * and then, once the failed device is replaced, for the copy-back (the
 * two never overlap); the RasEngine owns pacing and policy.
 */
class SpareChip
{
  public:
    /**
     * Engage the spare for @p failed_chip. The failed device is fenced
     * off the bus, taking its stuck cells with it; the lane reads as
     * garbage until the rebuild fills it.
     *
     * @param pm_rank the rank the spare is provisioned for.
     * @param threshold RS acceptance threshold for erasure fills.
     */
    SpareChip(PmRank &pm_rank, unsigned threshold, unsigned failed_chip);

    /** Blocks below this index are already rebuilt onto the spare (or,
     *  once the copy-back began, already copied back). */
    unsigned watermark() const { return cursor; }
    /** The current rebuild or copy-back reached the end of the rank. */
    bool done() const { return cursor >= rank.blocks(); }

    /** Blocks the rebuild had to poison (reported UE). */
    std::uint64_t poisonedBlocks() const { return poisonedCount; }
    /** Survivor bits the pre-fill scrubs corrected. */
    std::uint64_t survivorBitsFixed() const { return survivorBits; }
    /** Latent lane bits the migrate-back copy-verify corrected. */
    std::uint64_t latentBitsFixed() const { return latentBits; }

    /** Operator replaced the failed device after a finished rebuild:
     *  restart the cursor for the copy-back. */
    void beginMigrateBack();

    /**
     * Advance up to @p max_blocks, rounded up to whole VLEW spans (at
     * least one span per call); returns the blocks processed.
     *
     * Rebuild, per span: scrub every survivor's VLEW word (their
     * findings land in @p survivors, -1 for uncorrectable, summed over
     * the step; the dead lane reads 0), then RS-erasure-fill the dead
     * lane and re-encode its code bits. A span with an unvouched
     * survivor is poisoned instead of filled.
     *
     * Copy-back, per span: read the spare's lane through its VLEW
     * correction (fixing latent spare errors on the way) and write the
     * corrected beats to the new device — under canonical lane storage
     * that is a scrub of the lane's span. @p survivors reads all 0.
     */
    unsigned step(unsigned max_blocks, ChipFindings &survivors);

  private:
    /** End of a step of up to @p max_blocks from the cursor: rounded
     *  up to whole VLEW spans, at least one. */
    unsigned stepEnd(unsigned max_blocks) const;

    PmRank &rank;
    unsigned thresh;
    unsigned chip;
    unsigned cursor = 0;
    bool copyingBack = false;
    std::uint64_t poisonedCount = 0;
    std::uint64_t survivorBits = 0;
    std::uint64_t latentBits = 0;
};

/** Fault plans the spare campaign drives. */
enum class SparePlan
{
    Unarmed,   //!< no spare: the PR-9 degraded failover (baseline)
    Rebuild,   //!< kill -> spare rebuild completes (Spared)
    SpareLoss, //!< spare dies mid-rebuild -> degraded fallback
    Repair,    //!< rebuild -> chip replaced -> migrate-back (Healthy)
};

/** Stable labels for tables, --filter selection, and logs, in
 *  SparePlan order. */
constexpr const char *sparePlanNames[] = {"unarmed", "rebuild",
                                            "spare-loss", "repair"};

inline const char *
sparePlanName(SparePlan plan)
{
    return sparePlanNames[static_cast<unsigned>(plan)];
}

/** Shape knobs for one hot-sparing trial (the kill lands at 3/10 of
 *  the horizon; ras.spareEnabled is overwritten per plan). */
struct SpareTrialConfig : LiveTrialShape
{
    SparePlan plan = SparePlan::Rebuild;
};

/** Run one seeded hot-sparing trial. */
RasTally runSpareTrial(const SpareTrialConfig &tc, Rng &rng);

using SpareCampaignConfig = TechPlanConfig<SpareTrialConfig>;

/** Per (technology, spare plan) row. */
using SpareTotals = CampaignTotals<RasTally>;

/**
 * Run the hot-sparing campaign as a ParallelSweep, print the per-cell
 * table to @p os, and return the tallies. Output is byte-identical
 * for any worker count at a fixed seed.
 */
SpareTotals spareCampaign(std::ostream &os, const SweepOptions &opts,
                          const SpareCampaignConfig &cfg);

} // namespace nvck

#endif // NVCK_SIM_SPARE_HH
