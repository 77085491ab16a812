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
#include <iterator>
#include <ostream>
#include <vector>

#include "chipkill/pm_rank.hh"
#include "sim/ras.hh"

namespace nvck {

/** Where the spare device stands. */
enum class SpareState
{
    Armed,       //!< provisioned, unused
    Rebuilding,  //!< filling with the dead chip's reconstructed lanes
    Active,      //!< carrying the lane at full code strength
    CopyingBack, //!< migrating back to the replacement device
    Abandoned,   //!< failed mid-rebuild; degraded failover took over
};

constexpr const char *spareStateNames[] = {
    "armed", "rebuilding", "active", "copying-back", "abandoned"};

inline const char *
spareStateName(SpareState state)
{
    return spareStateNames[static_cast<unsigned>(state)];
}

/**
 * Bit-level model of the rank's spare device. Owns the rebuild and
 * migrate-back cursors; the RasEngine owns pacing and policy.
 */
class SpareChip
{
  public:
    /**
     * @param pm_rank the rank the spare is provisioned for.
     * @param threshold RS acceptance threshold for erasure fills.
     */
    SpareChip(PmRank &pm_rank, unsigned threshold);

    SpareState state() const { return st; }
    /** Lane (chip index) the spare serves once engaged. */
    unsigned servedChip() const { return chip; }
    /** Blocks below this index are already rebuilt onto the spare. */
    unsigned watermark() const { return cursor; }
    /** Blocks below this index are already copied back. */
    unsigned backWatermark() const { return backCursor; }
    bool rebuildDone() const { return cursor >= rank.blocks(); }
    bool migrateBackDone() const
    {
        return backCursor >= rank.blocks();
    }

    /** End of a step of up to @p max_blocks from block @p from:
     *  rounded up to whole VLEW spans, at least one. */
    unsigned stepEnd(unsigned from, unsigned max_blocks) const;

    /** Blocks the rebuild had to poison (reported UE). */
    std::uint64_t poisonedBlocks() const { return poisonedCount; }
    /** Survivor bits the pre-fill scrubs corrected. */
    std::uint64_t survivorBitsFixed() const { return survivorBits; }
    /** Latent lane bits the migrate-back copy-verify corrected. */
    std::uint64_t latentBitsFixed() const { return latentBits; }

    /**
     * Engage the spare for @p failed_chip. The failed device is
     * fenced off the bus, taking its stuck cells with it; the lane
     * reads as garbage until the rebuild fills it.
     */
    void beginRebuild(unsigned failed_chip);

    /**
     * Rebuild up to @p max_blocks more blocks, rounded up to whole
     * VLEW spans (at least one span per call). Per span: scrub every
     * survivor's VLEW word (corrections land in @p survivors, -1 for
     * uncorrectable, same convention as the patrol check), then
     * RS-erasure-fill the dead lane and re-encode its code bits. A
     * span with an unvouched survivor is poisoned instead of filled.
     * Returns the blocks processed.
     */
    unsigned rebuildStep(unsigned max_blocks,
                         std::vector<int> *survivors = nullptr);

    /** The spare died mid-rebuild; the degraded fallback owns the
     *  rank now. */
    void abandon();

    /** Operator replaced the failed device: start the copy-back. */
    void beginMigrateBack();

    /**
     * Copy up to @p max_blocks back to the replacement device,
     * rounded up to whole spans. The copy reads the spare's lane
     * through its VLEW correction (fixing latent spare errors on the
     * way) and writes the corrected beats to the new device — under
     * canonical lane storage that is a scrub of the lane's spans.
     * Re-arms the spare when the last span lands.
     */
    unsigned migrateBackStep(unsigned max_blocks);

  private:
    PmRank &rank;
    unsigned thresh;
    SpareState st = SpareState::Armed;
    unsigned chip = 0;
    unsigned cursor = 0;
    unsigned backCursor = 0;
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
constexpr unsigned numSparePlans = std::size(sparePlanNames);

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
