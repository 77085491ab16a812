#include "spare.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"

namespace nvck {

// SpareChip -----------------------------------------------------------

SpareChip::SpareChip(PmRank &pm_rank, unsigned threshold,
                     unsigned failed_chip)
    : rank(pm_rank), thresh(threshold), chip(failed_chip)
{
    NVCK_ASSERT(failed_chip < rank.chips(), "chip out of range");
    // The failed device is fenced off the bus; its stuck cells leave
    // the array with it (the spare is a fresh device). The lane's
    // stored garbage stays until the rebuild overwrites it.
    rank.clearStuckCells(chip);
}

unsigned
SpareChip::stepEnd(unsigned max_blocks) const
{
    // 64-bit: the largest step knob must mean "the whole rank".
    const std::uint64_t span_blocks = rank.params().blocksPerVlew();
    const std::uint64_t nspans = std::max<std::uint64_t>(
        1, (max_blocks + span_blocks - 1) / span_blocks);
    return static_cast<unsigned>(std::min<std::uint64_t>(
        rank.blocks(), cursor + nspans * span_blocks));
}

void
SpareChip::beginMigrateBack()
{
    NVCK_ASSERT(done() && !copyingBack,
                "migrate-back needs a finished rebuild");
    // The replacement is a fresh device: the old one's wear damage
    // left the array with it.
    rank.clearStuckCells(chip);
    cursor = 0;
    copyingBack = true;
}

unsigned
SpareChip::step(unsigned max_blocks, ChipFindings &survivors)
{
    survivors.fill(0);
    const unsigned span_blocks = rank.params().blocksPerVlew();
    const unsigned start = cursor;
    for (const unsigned end = stepEnd(max_blocks); cursor < end;
         cursor += span_blocks) {
        const unsigned span = cursor / span_blocks;
        if (copyingBack) {
            // Copy-verify: latent spare errors are fixed on the way
            // instead of being copied onto the new chip.
            const auto res = rank.scrubWord(chip, span);
            if (res.corrections > 0)
                latentBits += static_cast<std::uint64_t>(res.corrections);
            continue;
        }
        std::uint16_t distrust = 0;
        // Latent survivor errors would become silent garbage in the
        // erasure fill (eight erasures spend the whole RS budget), so
        // scrub the survivors' VLEW words first — the same trust rule
        // as bootScrub's rank-wide pass before its wholesale rebuild.
        for (unsigned c = 0; c < rank.chips(); ++c) {
            if (c == chip)
                continue;
            const auto res = rank.scrubWord(c, span);
            if (res.corrections < 0) {
                distrust |= static_cast<std::uint16_t>(1u << c);
                survivors[c] = -1;
            } else if (res.corrections > 0) {
                survivorBits +=
                    static_cast<std::uint64_t>(res.corrections);
                if (survivors[c] >= 0)
                    survivors[c] += res.corrections;
            }
        }
        const auto rep =
            rank.rebuildLaneSpan(chip, span, thresh, distrust);
        poisonedCount += rep.blocksPoisoned;
    }
    return cursor - start;
}

// Trial ---------------------------------------------------------------

namespace {

/** The hot-sparing trial's service events on top of the shared fault
 *  primitives. */
struct SpareDriver : FaultStream
{
    SpareDriver(MirroredTrial &trial, RasMirror &m, std::uint64_t seed,
                SparePlan p)
        : FaultStream(trial, m, seed), plan(p)
    {
    }

    SparePlan plan;
    bool spareKilled = false;
    bool replaced = false;

    /**
     * Plan-specific service events, polled on a fixed cadence so the
     * trial replays identically at any worker count: the spare device
     * dies once the rebuild has crossed half the rank (SpareLoss), and
     * the operator swaps the failed chip once the rank is Spared
     * (Repair).
     */
    void
    monitorTick(Tick stop, Tick step)
    {
        RasEngine &eng = mirror.engine();
        if (plan == SparePlan::SpareLoss && !spareKilled &&
            eng.state() == RasState::Rebuilding &&
            eng.rebuildWatermark() >= rank.blocks() / 2) {
            // The spare device dies mid-rebuild: the lane it carries
            // reads back as garbage from here on.
            spareKilled = true;
            rank.failChip(victim, rng);
        }
        if (plan == SparePlan::Repair && !replaced &&
            eng.state() == RasState::Spared) {
            replaced = true;
            eng.chipReplaced();
        }
        if (sys.now() + step < stop) {
            sys.events().scheduleAfter(step, [this, stop, step] {
                monitorTick(stop, step);
            });
        }
    }
};

} // namespace

RasTally
runSpareTrial(const SpareTrialConfig &tc, Rng &rng)
{
    MirroredTrial m(tc, rng);
    RasConfig ras = tc.ras;
    ras.spareEnabled = (tc.plan != SparePlan::Unarmed);
    // Spare-loss trials model a slow rebuild (a big rank behind a
    // narrow spare bus): pacing is stretched so the spare's death is
    // detected while the rebuild is still running — the abandon path —
    // rather than only after completion via a Spared-state crossing.
    if (tc.plan == SparePlan::SpareLoss &&
        ras.rebuildStepInterval < nsToTicks(300))
        ras.rebuildStepInterval = nsToTicks(300);

    RasMirror mirror(m.sys, m.rank, m.oracle, ras, tc.threshold,
                     rng.next());
    RasEngine &eng = mirror.engine();
    SpareDriver driver(m, mirror, rng.next() | 1, tc.plan);

    auto &eq = m.sys.events();
    eq.schedule(tc.horizon / 10,
                [d = &driver] { d->transientBurst(); });
    eq.schedule(tc.horizon * 3 / 10, [d = &driver] { d->kill(); });
    eq.schedule(tc.horizon / 5, [d = &driver, stop = tc.horizon] {
        d->monitorTick(stop, nsToTicks(100));
    });

    eng.start();
    m.sys.start();
    m.sys.runUntil(tc.horizon);
    // A rebuild crossing the horizon (or a fallback/repair detected
    // late) gets bounded extra time; the state machine is otherwise
    // frozen where it stands and judged below.
    if (eng.inTransition() ||
        (tc.plan == SparePlan::SpareLoss && !mirror.completed()) ||
        (tc.plan == SparePlan::Repair && !mirror.repaired()))
        m.sys.runUntil(tc.horizon + tc.slack);

    RasTally tally = mirror.trialTally();
    switch (tc.plan) {
      case SparePlan::Unarmed:
        // The PR-9 baseline: degraded failover must complete.
        if (!mirror.completed())
            ++tally.missedFailovers;
        break;
      case SparePlan::Rebuild:
        // The spare must carry the lane to completion.
        if (!mirror.spared())
            ++tally.missedSpares;
        break;
      case SparePlan::SpareLoss:
        // Whichever route detection took — abandon mid-rebuild, or a
        // crossing right after Spared — the rank must end up fully
        // migrated to the degraded layout.
        if (!mirror.completed())
            ++tally.missedFailovers;
        break;
      case SparePlan::Repair:
        if (!(mirror.repaired() &&
              eng.state() == RasState::Healthy))
            ++tally.missedRepairs;
        break;
    }
    mirror.judgeDetection(tally, tc.detectAccessBound);
    tally.violations = tally.violationCount();

    NVCK_ASSERT(m.sys.pendingStaleAcks() == 0,
                "stale persist acks without a power cut");
    return tally;
}

// Campaign ------------------------------------------------------------

SpareTotals
spareCampaign(std::ostream &os, const SweepOptions &opts,
              const SpareCampaignConfig &cfg)
{
    using T = RasTally;
    static const CampaignTable<T> table{
        "spare plan",
        {{&T::trials}, {&T::kills}, {&T::rebuilds}, {&T::rebuiltBlocks},
         {&T::spared}, {&T::spareAbandons}, {&T::repairs}, {&T::survivorBits},
         {&T::failovers}, {&T::migrated}, {&T::detectAccessesMax}, {&T::sdc},
         {&T::lostDurable}, {&T::ue}, {&T::missedSpares}, {&T::missedRepairs},
         {&T::missedFailovers, "no failover"}, {&T::engageOverruns},
         {&T::violations}}};
    return techPlanCampaign(os, opts, cfg, table, &SpareTrialConfig::plan,
                            sparePlanNames, runSpareTrial);
}

} // namespace nvck
