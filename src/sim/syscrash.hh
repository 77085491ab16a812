/**
 * @file
 * Whole-system power-failure campaign: drives a synthetic persistent
 * workload through the full timing stack (cores -> cache hierarchy ->
 * memory controller -> EUR), mirrors every PM data burst and EUR drain
 * onto a bit-accurate PmRank, cuts power either at a random tick or at
 * an armed CrashHooks site (System::powerFail() is the real cut path),
 * runs PmRank::crashRecovery(), and audits every block with the
 * PersistOracle (crash.hh), which encodes the ADR contract the timing
 * layer implements.
 *
 * CrashInjector proves the same invariant for synthetic torn writes on
 * a pristine rank; this campaign produces the torn media state from
 * the timing pipeline itself mid-workload, so every future controller
 * or scheduling change is exercised against the invariant.
 */

#ifndef NVCK_SIM_SYSCRASH_HH
#define NVCK_SIM_SYSCRASH_HH

#include <cstdint>
#include <deque>
#include <iterator>
#include <ostream>
#include <span>
#include <vector>

#include "chipkill/pm_rank.hh"
#include "common/rng.hh"
#include "sim/campaign.hh"
#include "sim/configs.hh"
#include "sim/crash.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

namespace nvck {

/** Where the campaign cuts power. */
enum class CutSite
{
    /** Between events at a uniformly random simulated tick. */
    RandomTick,
    /** At the n-th PM data burst (onPmWrite), torn mid-burst: only a
     *  random subset of chips latched the XOR delta. */
    AtPmWrite,
    /** At the n-th row-close drain start (onRowClose): every register
     *  of the closing row dies before any code delta retires. */
    AtRowClose,
    /** At the n-th EUR register retirement (onEurDrain), torn per
     *  chip: a random subset of chips applied the code delta. */
    AtEurDrain,
};

/** Stable labels for tables, --filter selection, and logs, in
 *  CutSite order. */
constexpr const char *cutSiteNames[] = {
    "random-tick", "at-pm-write", "at-row-close", "at-eur-drain"};
constexpr unsigned numCutSites = std::size(cutSiteNames);

inline const char *
cutSiteName(CutSite site)
{
    return cutSiteNames[static_cast<unsigned>(site)];
}

/**
 * Compact persistent-memory workload for the campaign: each core owns
 * a strip of the (small) PM space and interleaves sequential log
 * appends (store + clwb per block, fence per group), hot-block
 * rewrites, PM/DRAM loads, DRAM stores, and short idle spans that let
 * the row-idle close policy trigger EUR drains. Unlike the stock
 * SyntheticWorkload profiles (which assert multi-MB per-core log
 * regions), this generator runs in a PM space sized exactly to the
 * mirrored rank.
 */
class CampaignWorkload : public Workload
{
  public:
    CampaignWorkload(const AddressSpace &space, unsigned cores,
                     std::uint64_t seed);

    std::string name() const override { return "syscrash"; }
    TraceOp next(unsigned core) override;
    unsigned mlp() const override { return 4; }

  private:
    struct CoreState
    {
        Rng rng{1};
        std::deque<TraceOp> ops;
        Addr stripBase = 0;
        std::uint64_t stripBlocks = 0;
        std::uint64_t logCursor = 0;
        Addr dramBase = 0;
        std::uint64_t dramBlocks = 0;
        std::vector<Addr> hot;
    };

    void refill(CoreState &cs);

    std::vector<CoreState> coreStates;
};

/** The compact System shape every mirrored campaign trial runs. */
struct MirroredTrialShape
{
    PmTech tech = PmTech::Reram;
    /** Mirrored rank capacity; must cover >= 2 rows per bank so row
     *  conflicts actually drain the EUR (multiple of 32). */
    unsigned rankBlocks = 1024;
    /** Banks per rank (both ranks; small keeps the rank mirrorable). */
    unsigned banks = 4;
    unsigned cores = 2;
};

/**
 * One mirrored trial's machine: a compact System running a
 * CampaignWorkload over a PM space sized exactly to @ref rank, the
 * initialized rank, and a persist oracle whose baseline is the rank's
 * pristine contents. Draws, in order: the System seed, the workload
 * seed, then the rank's initialization.
 */
struct MirroredTrial
{
    MirroredTrial(const MirroredTrialShape &shape, Rng &rng);

    SystemConfig cfg;
    System sys;
    PmRank rank;
    PersistOracle oracle;
};

/**
 * The timing->PmRank bridge core both mirrored campaigns derive from
 * (SysCrashMirror, RasMirror). It owns:
 *
 *  - the PM address -> rank block map;
 *  - the write payload stream (one Rng, so payloads and torn chip
 *    masks draw in call order);
 *  - the per-(bank, EUR slot) register bookkeeping: which blocks each
 *    register holds code deltas for, with open-row exclusivity (one
 *    VLEW span per register at a time) asserted on every hold;
 *  - drain-and-settle: a retired block's code bits move from the
 *    oracle's settled image to the current data, and the oracle
 *    settles the block.
 *
 * The derived mirror installs the CrashHooks and calls in; nothing
 * here is virtual or type-erased.
 */
class MediaMirror
{
  protected:
    /** @param value_seed seed of the write payload stream. */
    MediaMirror(System &sys, PmRank &rank, PersistOracle &oracle,
                std::uint64_t value_seed);

    unsigned blockOf(Addr addr) const;
    unsigned spanOf(unsigned block) const { return block / spanBlocks; }
    std::uint16_t
    fullMask() const
    {
        return static_cast<std::uint16_t>((1u << rank.chips()) - 1);
    }
    /** Non-empty strict chip subset: a torn phase. */
    std::uint16_t
    partialChipMask()
    {
        return randomChipMask(rng, rank.chips(), true, true);
    }

    /** Next intended 64B value of @p block, chained off its latest
     *  write intent (the controller XORs against the OMV). */
    void
    payload(unsigned block, std::uint8_t *out)
    {
        makePayload(rng, oracle.latest(block).data(), out);
    }
    /** Land @p value's data burst on the chips in @p data_mask (code
     *  delta EUR-held) and record it in the oracle. */
    void land(unsigned block, const std::uint8_t *value,
              std::uint16_t data_mask);
    /** payload() then land(). */
    void burst(unsigned block, std::uint16_t data_mask);

    /** Register (bank, slot) now holds @p block's code delta. */
    void hold(unsigned block, unsigned bank, unsigned slot);
    /** Blocks register (bank, slot) holds. */
    const std::vector<unsigned> &
    held(unsigned bank, unsigned slot) const
    {
        return registers[reg(bank, slot)];
    }
    /** Register (bank, slot) retired: settle every block it held. */
    void
    drain(unsigned bank, unsigned slot)
    {
        retireRegister(reg(bank, slot));
    }
    /** Chip-internal EUR merge: settle @p span's held code deltas
     *  ahead of a VLEW-touching operation. */
    void retireSpan(unsigned span);

    System &sys;
    PmRank &rank;
    PersistOracle &oracle;
    const unsigned spanBlocks;

  private:
    std::uint32_t reg(unsigned bank, unsigned slot) const;
    void retire(unsigned block);
    void retireRegister(std::uint32_t r);

    Rng rng;
    unsigned slotsPerBank;
    /** Held blocks per flattened (bank * slotsPerBank + slot). */
    std::vector<std::vector<unsigned>> registers;
    /** Register holding each span's code deltas (valid while held). */
    std::vector<std::uint32_t> spanRegister;
    /** Per-span count of held blocks. */
    std::vector<unsigned> spanHeld;
};

/**
 * The whole-system crash bridge. Installs CrashHooks on the system's
 * controller and mirrors the PM write path through a MediaMirror:
 * each data burst lands on the rank and is held under its (bank, EUR
 * slot) register until onEurDrain settles it. On top it adds the cut:
 * onRowClose / burst / drain occurrence counters arm it, and at the
 * chosen occurrence the mirror freezes (the media sees nothing past
 * the cut), captures the controller's queued PM writes as the ADR
 * flush set (their data lands, their code deltas die), and halts the
 * event loop so no simulated time passes before System::powerFail().
 */
class SysCrashMirror : MediaMirror
{
  public:
    /**
     * @param occurrence 1-based count of the armed site's events at
     *        which the cut fires (ignored for RandomTick).
     * @param value_seed substream for the generated write payloads.
     */
    SysCrashMirror(System &sys, PmRank &rank, PersistOracle &oracle,
                   CutSite site, std::uint64_t occurrence,
                   std::uint64_t value_seed);

    /** True once the cut happened (armed site or cutNow()). */
    bool cutDone() const { return cut; }

    /**
     * Cut power now: freeze the mirror, apply the ADR flush of the
     * controller's queued PM writes, and halt the event loop. Used
     * directly for RandomTick cuts and as the horizon fallback when
     * the armed site never reached its occurrence.
     */
    void cutNow();

    std::uint64_t bursts() const { return burstCount; }
    std::uint64_t drains() const { return drainCount; }
    std::uint64_t flushedAtCut() const { return flushCount; }

  private:
    void onPmWrite(Addr addr, unsigned bank, unsigned slot);
    void onEurDrain(unsigned bank, unsigned slot);
    void onRowClose(unsigned bank);

    CutSite site;
    std::uint64_t occurrence;

    std::uint64_t burstCount = 0;
    std::uint64_t drainCount = 0;
    std::uint64_t rowCloseCount = 0;
    std::uint64_t flushCount = 0;
    bool cut = false;
};

/** Tallies from a batch of whole-system crash trials. */
struct SysCrashTally : TallyBase<SysCrashTally>
{
    std::uint64_t trials = 0;
    /** Cuts that fired at the armed hook site (vs horizon fallback). */
    std::uint64_t cutsAtSite = 0;
    std::uint64_t bursts = 0;
    std::uint64_t drains = 0;
    /** Queued PM writes the ADR domain flushed at the cut. */
    std::uint64_t flushedAtCut = 0;
    /** Blocks with a pending (unsettled) write at the cut. */
    std::uint64_t pendingAtCut = 0;
    std::uint64_t tornOld = 0;
    std::uint64_t tornNew = 0;
    /** Pending blocks resolved to an earlier still-pending burst. */
    std::uint64_t tornIntermediate = 0;
    std::uint64_t tornUe = 0;
    /** Settled/untouched blocks sacrificed to a reported UE. */
    std::uint64_t collateralUe = 0;
    std::uint64_t chipKills = 0;
    /** Orphaned persist acks absorbed during the reboot drive. */
    std::uint64_t staleAcksAbsorbed = 0;
    /** Oracle violations: must be zero. */
    std::uint64_t violations = 0;

    static std::span<const TallyField<SysCrashTally>> fields();
};

/** Shape knobs for one whole-system trial. */
struct SysCrashTrialConfig : MirroredTrialShape
{
    CutSite site = CutSite::RandomTick;
    /** Simulated horizon; hook cuts that never trigger fall back to a
     *  cut here. */
    Tick horizon = nsToTicks(8000);
    /** Probability that a whole chip dies at the same cut. */
    double chipKillFraction = 0.08;
    /** RS acceptance threshold forwarded to recovery/reads. */
    unsigned threshold = 2;
    /** Drive the rebooted machine briefly after recovery so orphaned
     *  persist acks exercise the stalePersistAcks guard. */
    bool rebootDrive = true;
};

/** Run one seeded whole-system crash trial. */
SysCrashTally runSysCrashTrial(const SysCrashTrialConfig &tc, Rng &rng);

/** Shape of a (technology x plan) campaign; the defaults meet the
 *  acceptance bar (>= 5k trials). */
template <typename Trial>
struct TechPlanConfig
{
    std::uint64_t seed = 2018;
    /** Trials, split across the (technology x plan) rows. */
    std::uint64_t trials = 6000;
    /** Trials per sweep point (parallel work-item granularity). */
    unsigned chunkTrials = 25;
    Trial trial; //!< tech and plan overwritten per row
};

using SysCrashCampaignConfig = TechPlanConfig<SysCrashTrialConfig>;

/** Technologies the mirrored campaigns sweep, in row order. */
constexpr PmTech campaignTechs[] = {PmTech::Reram, PmTech::Pcm};

/** Per (technology, cut site) row. */
using SysCrashTotals = CampaignTotals<SysCrashTally>;

/**
 * A (technology x plan) campaign over runCampaign(): one row
 * "<tech>/<plan>" per campaignTechs entry and plan name in
 * @p plan_names, in that order, with @p cfg.trials split evenly. Each
 * trial runs @p run_trial on @p cfg.trial with the row's technology
 * and its plan stored in @p plan.
 */
template <typename Tally, typename Trial, typename Plan>
CampaignTotals<Tally>
techPlanCampaign(std::ostream &os, const SweepOptions &opts,
                 const TechPlanConfig<Trial> &cfg,
                 const CampaignTable<Tally> &table, Plan Trial::*plan,
                 std::span<const char *const> plan_names,
                 Tally (*run_trial)(const Trial &, Rng &))
{
    const std::size_t plans = plan_names.size();
    std::vector<CampaignRow> rows;
    for (const PmTech tech : campaignTechs) {
        for (const char *name : plan_names) {
            rows.push_back({pmTechName(tech) + "/" + name,
                            evenShare(cfg.trials,
                                      std::size(campaignTechs) * plans,
                                      rows.size())});
        }
    }
    return runCampaign(
        os, opts, cfg.seed, cfg.chunkTrials, rows, table,
        [&](std::size_t row, std::uint64_t batch, Rng &rng) {
            Trial tc = cfg.trial;
            tc.tech = campaignTechs[row / plans];
            tc.*plan = static_cast<Plan>(row % plans);
            Tally tally;
            for (std::uint64_t t = 0; t < batch; ++t)
                tally += run_trial(tc, rng);
            return tally;
        });
}

/**
 * Run the whole-system campaign as a ParallelSweep, print the per-cell
 * table to @p os, and return the tallies. Output is byte-identical for
 * any worker count at a fixed seed.
 */
SysCrashTotals systemCrashCampaign(std::ostream &os,
                                   const SweepOptions &opts,
                                   const SysCrashCampaignConfig &cfg);

} // namespace nvck

#endif // NVCK_SIM_SYSCRASH_HH
