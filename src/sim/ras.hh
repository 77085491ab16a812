/**
 * @file
 * Runtime RAS (reliability/availability/serviceability) engine: the
 * online half of the paper's chipkill story. Section V assumes a chip
 * failure is detected and remedied at runtime — RS(72,64) flags the
 * erasure and the system drops to the degraded bit-error-only mode —
 * but until now the repo only modelled that transition offline
 * (DegradedRank::takeOver on a quiesced rank). This engine closes the
 * loop under live traffic:
 *
 *  - a **health ledger** keeps one integer leaky bucket per chip and
 *    per VLEW-span row, fed by every runtime correction event (RS
 *    within-threshold fixes, VLEW fallbacks, erasure rebuilds, patrol
 *    scrub findings). Buckets leak a fixed amount per decay interval,
 *    so transient faults age out while intermittent and progressive
 *    faults accumulate and cross thresholds. All accounting is
 *    integer arithmetic — no libm — so trials replay bit-identically
 *    on any host;
 *  - a **patrol scrubber** runs as a recurring EventQueue event: each
 *    cycle it yields to pending demand reads, otherwise issues a
 *    bounded burst of patrol reads through the real MemController
 *    (isPatrol overhead traffic) and, when the last read completes,
 *    scrubs the covered VLEW span word-by-word through the
 *    rank's word scrub (a residue pass, skipped for a word whose
 *    memoized verdict still holds), feeding findings to the ledger.
 *    A row bucket crossing its (lower) threshold schedules an
 *    immediate targeted scrub of that span — latent errors are
 *    repaired before they can accumulate past the RS budget;
 *  - **online failover**: when a chip bucket crosses the kill
 *    threshold, the engine drains all in-flight EUR state through the
 *    controller (MemController::drainPmEur, the usual row-close path),
 *    then migrates the rank to a DegradedRank span by span as paced
 *    events interleaved with demand traffic, routing reads/writes by
 *    a migration watermark the whole time. A second chip crossing
 *    after (or during) failover reports Unrecoverable — two dead
 *    chips exceed the RS budget — instead of asserting.
 *
 * The engine owns timing and policy only; all bit-level work (scrub
 * decode, block migration, ledger evidence from real reads) is the
 * RasMirror's, built as the engine's pair over the bit-accurate
 * PmRank/DegradedRank, which the engine calls directly.
 *
 * One modelling note on EUR-pending spans: a VLEW whose code-bit delta
 * still sits in the EUR must not be decoded against the stale media
 * code (the decoder would "correct" a durable write away). The chip
 * holds the EUR (Fig 11), so any chip-internal VLEW operation folds
 * the pending delta in first; the mirror models this by retiring a
 * span's pending code deltas before any scrub or VLEW-fallback read
 * that touches it.
 */

#ifndef NVCK_SIM_RAS_HH
#define NVCK_SIM_RAS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "common/event.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sim/parallel.hh"
#include "sim/syscrash.hh"
#include "sim/system.hh"

namespace nvck {

/** RAS policy knobs (env overrides via fromEnv()). */
struct RasConfig
{
    /** Patrol cycle period (NVCK_RAS_PATROL, ns). */
    Tick patrolInterval = nsToTicks(400);
    /** Chip bucket level that triggers failover (NVCK_RAS_THRESHOLD). */
    std::uint64_t killThreshold = 48;
    /** Leak cadence for every bucket (NVCK_RAS_DECAY, ns). */
    Tick decayInterval = nsToTicks(2000);
    /** Level leaked per elapsed decay interval. */
    std::uint64_t decayStep = 4;
    /** A spare chip is provisioned and armed (the spare campaign sets
     *  it per plan). */
    bool spareEnabled = false;
    /** Blocks rebuilt onto the spare per step
     *  (NVCK_SPARE_REBUILD_BLOCKS; rounded up to whole spans). */
    unsigned rebuildBlocksPerStep = 32;
    /** Pacing between rebuild / migrate-back steps
     *  (NVCK_SPARE_REBUILD_INTERVAL, ns). */
    Tick rebuildStepInterval = nsToTicks(60);
    /** Patrol visits spans hottest-first by demand-write wear
     *  (NVCK_RAS_PATROL_ORDER=wear|addr). */
    bool wearAwarePatrol = true;

    /**
     * Apply NVCK_RAS_PATROL / NVCK_RAS_THRESHOLD / NVCK_RAS_DECAY /
     * NVCK_SPARE_REBUILD_BLOCKS / NVCK_SPARE_REBUILD_INTERVAL /
     * NVCK_RAS_PATROL_ORDER on top of the defaults (strict parse:
     * garbage, or a value that overflows its field, exits with
     * status 2).
     */
    static RasConfig fromEnv();
};

/** Lockstep chips of a rank (8 data + parity). */
constexpr unsigned lockstepChips = 9;

/**
 * One VLEW span's scrub outcome per lockstep chip, in the word scrub's
 * convention: n corrected bits, -1 uncorrectable, 0 clean. Patrol
 * checks, the spare rebuild's survivor scrub and demand reads all
 * report their evidence in this form (RasEngine::noteFindings).
 */
using ChipFindings = std::array<int, lockstepChips>;

/**
 * Integer leaky-bucket error accounting, per chip and per row (a
 * "row" is a VLEW span — the repair granule the patrol scrubber and
 * the degraded layout both work in). record*() adds weight after
 * leaking `decayStep` per whole `decayInterval` elapsed since the
 * bucket's last update; levels are exact integer functions of the
 * event history, so threshold crossings are reproducible anywhere.
 */
class HealthLedger
{
  public:
    HealthLedger(unsigned chips, unsigned rows, const RasConfig &cfg);

    /** Add @p weight to a chip bucket at @p now; returns the level. */
    std::uint64_t recordChip(unsigned chip, std::uint64_t weight,
                             Tick now);
    /** Add @p weight to a row bucket at @p now; returns the level. */
    std::uint64_t recordRow(unsigned row, std::uint64_t weight,
                            Tick now);

    /** Decayed level as of @p now (no state change). */
    std::uint64_t chipLevel(unsigned chip, Tick now) const;
    std::uint64_t rowLevel(unsigned row, Tick now) const;

    /** Empty a row bucket (after its targeted scrub fired). */
    void resetRow(unsigned row);

    /** Empty a chip bucket (the device behind it was replaced). */
    void resetChip(unsigned chip);

  private:
    struct Bucket
    {
        std::uint64_t level = 0;
        Tick lastLeak = 0;
    };

    std::uint64_t decayed(const Bucket &b, Tick now) const;
    std::uint64_t record(Bucket &b, std::uint64_t weight, Tick now);

    Tick decayInterval;
    std::uint64_t decayStep;
    std::vector<Bucket> chipBuckets;
    std::vector<Bucket> rowBuckets;
};

/** Failover / hot-sparing state machine. */
enum class RasState
{
    Healthy,       //!< patrol running, ledger armed
    Draining,      //!< kill detected; EUR state draining
    Migrating,     //!< per-span migration interleaved with traffic
    Degraded,      //!< serving from the DegradedRank layout
    Rebuilding,    //!< dead chip's lanes rebuilding onto the spare
    Spared,        //!< spare carries the lane; full code strength
    MigratingBack, //!< spare copying back to the replacement chip
    Unrecoverable, //!< a second chip crossed; reads report UE
};

constexpr const char *rasStateNames[] = {
    "healthy", "draining", "migrating", "degraded", "rebuilding",
    "spared", "migrating-back", "unrecoverable"};

inline const char *
rasStateName(RasState state)
{
    return rasStateNames[static_cast<unsigned>(state)];
}

/** Aggregated outcome of lifecycle trials. */
struct RasTally : TallyBase<RasTally>
{
    std::uint64_t trials = 0;
    std::uint64_t patrolBursts = 0;
    std::uint64_t patrolYields = 0;
    std::uint64_t scrubBits = 0;
    std::uint64_t demandReads = 0;
    std::uint64_t demandWrites = 0;
    std::uint64_t rsFixes = 0;
    std::uint64_t vlewFallbacks = 0;
    std::uint64_t chipRecovered = 0;
    std::uint64_t rowAlarms = 0;
    std::uint64_t targetedScrubs = 0;
    std::uint64_t kills = 0;
    std::uint64_t failovers = 0;
    std::uint64_t migrated = 0;
    std::uint64_t degradedReads = 0;
    std::uint64_t degradedWrites = 0;
    std::uint64_t drainedAtFailover = 0;
    /** Max over trials of demand accesses from kill injection to
     *  failover engagement. */
    std::uint64_t detectAccessesMax = 0;
    std::uint64_t sdc = 0;         //!< silent wrong data from a read
    std::uint64_t lostDurable = 0; //!< final state lost a durable write
    std::uint64_t ue = 0;          //!< reported UEs (none expected)
    std::uint64_t falseKills = 0;  //!< kill in a Transient-plan trial
    std::uint64_t missedFailovers = 0; //!< ChipKill without completion
    std::uint64_t engageOverruns = 0;  //!< detection latency > bound
    /** Hot-sparing outcomes (spare campaign; zero when unarmed). */
    std::uint64_t rebuilds = 0;      //!< spare rebuilds engaged
    std::uint64_t rebuiltBlocks = 0; //!< blocks rebuilt onto the spare
    std::uint64_t spared = 0;        //!< rebuilds completed
    std::uint64_t spareAbandons = 0; //!< spare died; degraded fallback
    std::uint64_t repairs = 0;       //!< migrate-backs completed
    std::uint64_t survivorBits = 0;  //!< survivor bits fixed pre-fill
    std::uint64_t missedSpares = 0;  //!< Rebuild plan without Spared
    std::uint64_t missedRepairs = 0; //!< Repair plan without Healthy
    /** Oracle violations (violationCount() of the trial): must be
     *  zero. */
    std::uint64_t violations = 0;

    static std::span<const TallyField<RasTally>> fields();
};

/** Engine timestamps and counters that no RasTally field reports. */
struct RasStats
{
    std::uint64_t patrolDropped = 0; //!< completions after a kill
    std::uint64_t doubleKills = 0;
    std::uint64_t migrationTrafficDropped = 0;
    Tick detectedAt = 0; //!< kill threshold crossing
    Tick engagedAt = 0;  //!< migration started (EUR drained)
    Tick completedAt = 0;
    Tick sparedAt = 0;   //!< spare rebuild completed
    Tick repairedAt = 0; //!< migrate-back completed
};

class RasMirror;

/**
 * The timing-side RAS engine: patrol pacing, ledger bookkeeping, and
 * the failover state machine, scheduled on the System's EventQueue.
 */
class RasEngine
{
  public:
    /** Patrol reads modelled per burst (one VLEW span per burst). */
    static constexpr unsigned patrolReads = 4;
    /** Row bucket level that triggers a targeted scrub. */
    static constexpr std::uint64_t rowThreshold = 12;
    /** Ledger weight of one chip-erasure event (VLEW uncorrectable). */
    static constexpr std::uint64_t erasureWeight = 16;
    /** Blocks migrated per degraded-failover step (one VLEW span). */
    static constexpr unsigned migrateBlocksPerStep = 32;
    /** Pacing between degraded-failover steps. */
    static constexpr Tick migrateStepInterval = nsToTicks(60);
    /** Spare-bucket level that abandons the rebuild and falls back to
     *  the degraded layout (the spare itself is failing). */
    static constexpr std::uint64_t spareKillThreshold = 48;

    /** @p mirror does the bit-level work of every step. */
    RasEngine(System &system, const RasConfig &config,
              unsigned rank_blocks, unsigned span_blocks,
              RasMirror &mirror);

    /** Arm the patrol cycle (first burst one interval from now). */
    void start();

    /**
     * Feed a correction event attributed to @p chip. Crossing the kill
     * threshold schedules failover (deferred one event, so feeding
     * from inside a controller callback is safe); crossing on a second
     * chip after failover reports Unrecoverable.
     */
    void noteChipErrors(unsigned chip, std::uint64_t weight);

    /**
     * Feed one check's per-chip findings, the evidence of patrol
     * scrubs, the spare rebuild's survivor scrub and demand reads
     * alike: an uncorrectable word weighs erasureWeight, n corrections
     * weigh n. While the spare rebuilds, the killed lane's evidence at
     * @p block is routed by the rebuild watermark: below it the spare
     * serves the lane (noteSpareErrors), above it the dead device's
     * errors carry no information. Returns the corrected bits found.
     */
    std::uint64_t noteFindings(const ChipFindings &found, unsigned block);

    /** Feed row-granularity evidence; may schedule a targeted scrub. */
    void noteRowErrors(unsigned row, std::uint64_t weight);

    /**
     * Feed a correction event attributed to the spare device while it
     * is rebuilding. Crossing spareKillThreshold abandons the spare
     * (deferred one event) and falls back to the degraded failover for
     * the originally killed chip.
     */
    void noteSpareErrors(std::uint64_t weight);

    /** Account one demand write to @p row for wear-aware patrol. */
    void noteRowWrite(unsigned row);

    /**
     * Operator serviced the DIMM: the failed chip was physically
     * replaced. Legal only in the Spared state; starts the paced
     * migrate-back of the spare's contents onto the new device.
     */
    void chipReplaced();

    /** Count a demand PM access (failover-latency bookkeeping). */
    void noteAccess() { ++accessCount; }

    RasState state() const { return st; }
    /** Draining, migrating, rebuilding or migrating back: a trial
     *  ending here gets extra time to settle. */
    bool inTransition() const;
    unsigned killedChip() const { return killed; }
    /** Blocks below this index are served by the degraded layout. */
    unsigned watermark() const;
    /** Blocks below this index are already rebuilt onto the spare (or,
     *  while migrating back, already copied back). */
    unsigned rebuildWatermark() const;
    std::uint64_t accesses() const { return accessCount; }
    /** Demand accesses counted when failover first engaged. */
    std::uint64_t engageAccess() const { return accessesAtEngage; }
    /** Patrol bursts whose reads are still in flight. */
    unsigned patrolInFlight() const { return joinsLive; }

    /** The RasTally fields the engine counts (patrol, alarms, kills,
     *  failover, spare); the mirror counts the rest. */
    const RasTally &tally() const { return counts; }
    const RasStats &stats() const { return rasStats; }
    const HealthLedger &ledger() const { return healthLedger; }

  private:
    struct PatrolJoin
    {
        unsigned remaining = 0;
        unsigned span = 0;
        std::uint32_t next = 0; //!< free-list link
    };

    static constexpr std::uint32_t noJoin = UINT32_MAX;
    /** Ledger bucket tracking the spare device's own health. */
    static constexpr unsigned spareBucket = lockstepChips;

    void patrolTick();
    /** Issue one patrol burst over @p span; false if nothing issued. */
    bool issueBurst(unsigned span, bool targeted);
    void patrolReadDone(std::uint32_t join);
    void patrolComplete(unsigned span);
    /** Next span in the patrol schedule (wear-ordered or sequential). */
    unsigned nextPatrolSpan();
    /** Re-arm the patrol cycle if its event is not already pending. */
    void resumePatrol();
    void beginFailover();
    /** Drop to the degraded layout (no spare, or spare abandoned). */
    void engageDegraded();
    /** Start the engagement clock unless a first engagement ran. */
    void noteEngaged();
    /** Queue the next step of the paced copy the state names. */
    void armCopy();
    /** One paced copy step: degraded migration (Migrating), spare
     *  rebuild (Rebuilding) or copy-back (MigratingBack). */
    void copyTick();
    /** The copy the state names reached the end of the rank. */
    void finishCopy();
    void abandonSpare();
    /** Bus cost of a paced copy step: bounded overhead R+W pairs. */
    void issueOverheadPairs(unsigned count, unsigned first_block);

    System &sys;
    RasConfig cfg;
    RasMirror &mirror;
    unsigned rankBlocks;
    unsigned spanBlocks;
    unsigned spans;
    HealthLedger healthLedger;
    RasState st = RasState::Healthy;
    unsigned killed = 0;
    bool killQueued = false;
    bool targetedQueued = false;
    bool spareUsed = false;
    bool abandonQueued = false;
    std::uint64_t accessCount = 0;
    std::uint64_t accessesAtEngage = 0;
    unsigned patrolCursor = 0;
    bool patrolArmed = false;
    /** Demand-write wear per span and the derived patrol order. */
    std::vector<std::uint64_t> wearCount;
    std::vector<unsigned> patrolQueue;
    EventQueue::Recurring patrolEv;
    std::vector<PatrolJoin> joins;
    std::uint32_t freeJoin = noJoin;
    unsigned joinsLive = 0;
    RasTally counts;
    RasStats rasStats;
};

/**
 * Incremental bit-level migration of a healthy rank (minus one chip)
 * into a DegradedRank. Starts from the zero-constructed degraded
 * state — zero data with zero code bits is a consistent striped-VLEW
 * image — and applies each source block through writeBlock's linear
 * XOR path, so after the last step the result is bit-identical to an
 * offline DegradedRank::takeOver of the same quiesced contents (the
 * differential test in tests/sim/test_ras.cc pins this). Source
 * blocks are read through the full runtime path (RS, VLEW fallback,
 * erasure around the dead chip); a source block standing at a
 * reported UE poisons its destination span rather than migrating
 * garbage.
 */
class OnlineFailover
{
  public:
    OnlineFailover(PmRank &healthy, unsigned failed_chip,
                   unsigned threshold);

    /** Migrate up to @p max_blocks more blocks; returns how many. */
    unsigned step(unsigned max_blocks);

    bool done() const { return cursor >= source.blocks(); }
    /** Blocks below this index live in the degraded layout. */
    unsigned watermark() const { return cursor; }
    std::uint64_t poisonedBlocks() const { return poisoned; }

    DegradedRank &degraded() { return target; }
    const DegradedRank &degraded() const { return target; }

  private:
    PmRank &source;
    unsigned thresh;
    unsigned cursor = 0;
    std::uint64_t poisoned = 0;
    DegradedRank target;
};

/** Multi-phase fault stream a lifecycle trial injects. */
enum class FaultPlan
{
    Transient,    //!< scattered one-shot flips only; no kill expected
    Intermittent, //!< + recurring flips on one victim chip
    Progressive,  //!< + accumulating stuck-at cells on the victim
    ChipKill,     //!< + full chip kill; failover must complete
};

/** Stable labels for tables, --filter selection, and logs, in
 *  FaultPlan order. */
constexpr const char *faultPlanNames[] = {
    "transient", "intermittent", "progressive", "chip-kill"};

class SpareChip;

/**
 * The timing<->bit-level bridge for the lifecycle campaign: a
 * MediaMirror that installs CrashHooks to replay every demand PM
 * access on the PmRank (feeding the ledger from real read outcomes and
 * the persist oracle from the write path), does the engine's
 * bit-level steps (patrol scrub via PmRank::scrubWord, migration
 * via OnlineFailover, spare rebuild and copy-back via SpareChip), and
 * routes accesses across the migration watermark once failover starts.
 */
class RasMirror : MediaMirror
{
  public:
    RasMirror(System &system, PmRank &pm_rank, PersistOracle &po,
              const RasConfig &ras_cfg, unsigned threshold,
              std::uint64_t value_seed);
    ~RasMirror();

    RasEngine &engine() { return *eng; }
    const RasEngine &engine() const { return *eng; }

    /** Begin counting demand accesses toward the detection bound. */
    void noteKillInjected();

    bool engaged() const { return eng->stats().engagedAt != 0; }
    bool completed() const { return eng->tally().failovers > 0; }
    bool unrecoverable() const { return eng->stats().doubleKills > 0; }
    /** Spare rebuild completed at least once. */
    bool spared() const { return eng->tally().spared > 0; }
    /** Migrate-back to a replacement chip completed. */
    bool repaired() const { return eng->tally().repairs > 0; }
    /** The spare was abandoned mid-rebuild (degraded fallback). */
    bool spareAbandoned() const { return eng->tally().spareAbandons > 0; }
    /** The bit-level spare, when one has been engaged. */
    const SpareChip *spareChip() const { return spare.get(); }
    /** Once failover engaged: record the demand PM accesses from kill
     *  injection to engagement (0 when it engaged proactively) as
     *  @p tally's detectAccessesMax, and an engageOverrun past
     *  @p bound. */
    void judgeDetection(RasTally &tally, std::uint64_t bound) const;

    /**
     * End of trial: drain the remaining EUR state through the
     * controller, read back every block through the live routing, and
     * add the oracle's audit to @p tally (ue / lostDurable).
     * Campaign-level plan assertions stay with the caller.
     */
    void finalCheck(RasTally &tally);

    /** End of trial: finalCheck() plus the engine's and the mirror's
     *  counters, as one trial's tally (plan verdicts stay with the
     *  caller). */
    RasTally trialTally();

  private:
    /** The engine drives the bit-level steps below. */
    friend class RasEngine;

    void demandRead(unsigned block);
    void demandWrite(unsigned block, unsigned bank, unsigned slot);
    /** Scrub @p span's VLEW word on every chip. */
    ChipFindings patrolCheck(unsigned span);
    void onFailoverStart(unsigned chip);
    void onRebuildStart(unsigned chip);
    void onChipReplaced();
    /** Cursor of the active copy: the degraded migration once it
     *  started, else the spare's rebuild or copy-back. */
    unsigned copyWatermark() const;
    /**
     * One step of up to @p max_blocks of the active copy: retire the
     * pending code deltas of every span it touches (its reads are
     * VLEW-touching), step it, and feed the spare rebuild's survivor
     * findings to the ledger. Returns the blocks moved.
     */
    unsigned copyStep(unsigned max_blocks);

    unsigned threshold;
    std::unique_ptr<OnlineFailover> failover;
    std::unique_ptr<SpareChip> spare;
    std::unique_ptr<RasEngine> eng;
    std::uint64_t accessesAtInjection = 0;
    /** Read/write-path counters of the run so far (one trial). */
    RasTally n;
};

/** Shape knobs shared by the lifecycle and hot-sparing trials. */
struct LiveTrialShape : MirroredTrialShape
{
    /** Live-traffic horizon; fault phases are placed inside it. */
    Tick horizon = nsToTicks(16000);
    /** Extra time allowed for a late failover, rebuild or migration
     *  to finish. */
    Tick slack = nsToTicks(8000);
    /** RS acceptance threshold. */
    unsigned threshold = 2;
    /** Engine policy (bench applies RasConfig::fromEnv()). */
    RasConfig ras;
    /** Max demand PM accesses from kill injection to engagement. */
    std::uint64_t detectAccessBound = 512;
};

/** Shape knobs for one lifecycle trial. */
struct RasTrialConfig : LiveTrialShape
{
    FaultPlan plan = FaultPlan::ChipKill;
};

/**
 * The fault primitives a live trial injects: scattered flips and the
 * victim chip's kill (the victim is the stream's first draw). Trial
 * drivers extend it; events capture only the driver pointer (plus
 * scalars), so a stack-local driver fits the event queue's inline
 * capture budget.
 */
struct FaultStream
{
    FaultStream(MirroredTrial &trial, RasMirror &m, std::uint64_t seed)
        : sys(trial.sys), rank(trial.rank), mirror(m), rng(seed),
          victim(static_cast<unsigned>(rng.below(rank.chips())))
    {
    }

    void
    flip(unsigned chip)
    {
        rank.corruptByte(
            chip, static_cast<unsigned>(rng.below(rank.blocks())),
            static_cast<unsigned>(rng.below(chipBeatBytes)),
            static_cast<std::uint8_t>(1u << rng.below(8)));
    }

    void
    transientBurst()
    {
        for (unsigned i = 0; i < 6; ++i)
            flip(static_cast<unsigned>(rng.below(rank.chips())));
    }

    void
    kill()
    {
        rank.failChip(victim, rng);
        mirror.noteKillInjected();
    }

    System &sys;
    PmRank &rank;
    RasMirror &mirror;
    Rng rng;
    unsigned victim;
};

/** Run one seeded lifecycle trial. */
RasTally runRasTrial(const RasTrialConfig &tc, Rng &rng);

using RasCampaignConfig = TechPlanConfig<RasTrialConfig>;

/** Per (technology, fault plan) row. */
using RasTotals = CampaignTotals<RasTally>;

/**
 * Run the fault-lifecycle campaign as a ParallelSweep, print the
 * per-cell table to @p os, and return the tallies. Output is
 * byte-identical for any worker count at a fixed seed.
 */
RasTotals rasCampaign(std::ostream &os, const SweepOptions &opts,
                      const RasCampaignConfig &cfg);

} // namespace nvck

#endif // NVCK_SIM_RAS_HH
