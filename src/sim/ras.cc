#include "ras.hh"

#include <algorithm>
#include <string>

#include "chipkill/wear.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "sim/spare.hh"

namespace nvck {

// RasConfig -----------------------------------------------------------

RasConfig
RasConfig::fromEnv()
{
    RasConfig cfg;
    // Bounded so every value still fits its field after conversion.
    constexpr std::uint64_t max_ns = UINT64_MAX / ticksPerNs;
    if (const auto v = envPositive("NVCK_RAS_PATROL", max_ns))
        cfg.patrolInterval = *v * ticksPerNs;
    if (const auto v = envPositive("NVCK_RAS_THRESHOLD"))
        cfg.killThreshold = *v;
    if (const auto v = envPositive("NVCK_RAS_DECAY", max_ns))
        cfg.decayInterval = *v * ticksPerNs;
    if (const auto v = envPositive("NVCK_SPARE_REBUILD_BLOCKS", UINT32_MAX))
        cfg.rebuildBlocksPerStep = static_cast<unsigned>(*v);
    if (const auto v = envPositive("NVCK_SPARE_REBUILD_INTERVAL", max_ns))
        cfg.rebuildStepInterval = *v * ticksPerNs;
    if (const auto v = envChoice("NVCK_RAS_PATROL_ORDER",
                                 {"wear", "addr"}))
        cfg.wearAwarePatrol = (*v == 0);
    return cfg;
}

// HealthLedger --------------------------------------------------------

HealthLedger::HealthLedger(unsigned chips, unsigned rows,
                           const RasConfig &cfg)
    : decayInterval(cfg.decayInterval), decayStep(cfg.decayStep),
      chipBuckets(chips), rowBuckets(rows)
{
    NVCK_ASSERT(decayInterval > 0, "ledger needs a decay interval");
}

std::uint64_t
HealthLedger::decayed(const Bucket &b, Tick now) const
{
    if (now <= b.lastLeak || b.level == 0 || decayStep == 0)
        return b.level;
    const std::uint64_t intervals = (now - b.lastLeak) / decayInterval;
    // Integer leak with an overflow-proof full-drain test.
    if (intervals >= (b.level + decayStep - 1) / decayStep)
        return 0;
    return b.level - intervals * decayStep;
}

std::uint64_t
HealthLedger::record(Bucket &b, std::uint64_t weight, Tick now)
{
    NVCK_ASSERT(now >= b.lastLeak, "ledger time ran backwards");
    b.level = decayed(b, now);
    b.lastLeak += ((now - b.lastLeak) / decayInterval) * decayInterval;
    b.level += weight;
    return b.level;
}

std::uint64_t
HealthLedger::recordChip(unsigned chip, std::uint64_t weight, Tick now)
{
    return record(chipBuckets.at(chip), weight, now);
}

std::uint64_t
HealthLedger::recordRow(unsigned row, std::uint64_t weight, Tick now)
{
    return record(rowBuckets.at(row), weight, now);
}

std::uint64_t
HealthLedger::chipLevel(unsigned chip, Tick now) const
{
    return decayed(chipBuckets.at(chip), now);
}

std::uint64_t
HealthLedger::rowLevel(unsigned row, Tick now) const
{
    return decayed(rowBuckets.at(row), now);
}

void
HealthLedger::resetRow(unsigned row)
{
    rowBuckets.at(row).level = 0;
}

void
HealthLedger::resetChip(unsigned chip)
{
    chipBuckets.at(chip).level = 0;
}

// RasEngine -----------------------------------------------------------

RasEngine::RasEngine(System &system, const RasConfig &config,
                     unsigned rank_blocks, unsigned span_blocks,
                     RasMirror &m)
    : sys(system), cfg(config), mirror(m),
      rankBlocks(rank_blocks), spanBlocks(span_blocks),
      spans(rank_blocks / span_blocks),
      // One bucket per lockstep chip (8 data + parity), plus one for
      // the spare device's own health; one row bucket per span.
      healthLedger(lockstepChips + 1, rank_blocks / span_blocks,
                   config)
{
    NVCK_ASSERT(spanBlocks > 0 && rankBlocks % spanBlocks == 0,
                "rank must hold whole patrol spans");
    NVCK_ASSERT(cfg.patrolInterval > 0 && cfg.rebuildStepInterval > 0,
                "RAS intervals must be positive");
    patrolEv = sys.events().makeRecurring([this] { patrolTick(); });
    wearCount.assign(spans, 0);
}

void
RasEngine::start()
{
    resumePatrol();
}

bool
RasEngine::inTransition() const
{
    return st == RasState::Draining || st == RasState::Migrating ||
           st == RasState::Rebuilding || st == RasState::MigratingBack;
}

void
RasEngine::patrolTick()
{
    if (st != RasState::Healthy && st != RasState::Spared) {
        patrolArmed = false;
        return; // failover owns the rank now; stop rearming
    }
    sys.events().rearm(patrolEv, sys.now() + cfg.patrolInterval);
    if (sys.memory().readQueueSize() != 0) {
        // Yield the cycle to demand reads (bounded-bandwidth patrol).
        ++counts.patrolYields;
        return;
    }
    if (issueBurst(nextPatrolSpan(), false))
        ++patrolCursor;
}

unsigned
RasEngine::nextPatrolSpan()
{
    const unsigned pos = patrolCursor % spans;
    if (!cfg.wearAwarePatrol)
        return pos;
    // Re-rank once per round: spans sorted by demand-write wear,
    // hottest first (exact integer comparison, ties by address), so
    // the bounded patrol budget lands on the rows most likely to hold
    // worn cells. Within a round the schedule is frozen — every span
    // is still visited exactly once before any is revisited.
    if (pos == 0 || patrolQueue.size() != spans)
        patrolQueue = wearPatrolOrder(wearCount);
    return patrolQueue[pos];
}

void
RasEngine::resumePatrol()
{
    if (patrolArmed)
        return;
    patrolArmed = true;
    sys.events().rearm(patrolEv, sys.now() + cfg.patrolInterval);
}

bool
RasEngine::issueBurst(unsigned span, bool targeted)
{
    NVCK_ASSERT(span < spans, "patrol span out of range");
    const unsigned reads = std::min(patrolReads, spanBlocks);
    NVCK_ASSERT(reads > 0, "patrol burst needs at least one read");
    const unsigned stride = spanBlocks / reads;

    std::uint32_t j;
    if (freeJoin != noJoin) {
        j = freeJoin;
        freeJoin = joins[j].next;
    } else {
        j = static_cast<std::uint32_t>(joins.size());
        joins.emplace_back();
    }
    joins[j].remaining = 0;
    joins[j].span = span;

    const Addr pm_base = sys.config().space.pmBase;
    for (unsigned i = 0; i < reads; ++i) {
        const Addr addr =
            pm_base + (static_cast<Addr>(span) * spanBlocks +
                       static_cast<Addr>(i) * stride) *
                          blockBytes;
        MemRequest req;
        req.addr = addr;
        req.op = MemOp::Read;
        req.isPm = true;
        req.isOverhead = true;
        req.isPatrol = true;
        req.onComplete = [this, j](Tick) { patrolReadDone(j); };
        if (!sys.memory().canAccept(MemOp::Read) ||
            !sys.memory().enqueue(std::move(req)))
            break;
        ++joins[j].remaining;
    }

    if (joins[j].remaining == 0) {
        joins[j].next = freeJoin;
        freeJoin = j;
        return false;
    }
    ++joinsLive;
    if (targeted)
        ++counts.targetedScrubs;
    else
        ++counts.patrolBursts;
    return true;
}

void
RasEngine::patrolReadDone(std::uint32_t join)
{
    PatrolJoin &pj = joins[join];
    NVCK_ASSERT(pj.remaining > 0, "patrol join underflow");
    if (--pj.remaining > 0)
        return;
    const unsigned span = pj.span;
    pj.next = freeJoin;
    freeJoin = join;
    --joinsLive;
    patrolComplete(span);
}

void
RasEngine::patrolComplete(unsigned span)
{
    if (st != RasState::Healthy && st != RasState::Spared) {
        // The burst was in flight when the kill landed; its spans now
        // belong to the failover path, so the check is dropped.
        ++rasStats.patrolDropped;
        return;
    }
    counts.scrubBits +=
        noteFindings(mirror.patrolCheck(span), span * spanBlocks);
}

std::uint64_t
RasEngine::noteFindings(const ChipFindings &found, unsigned block)
{
    std::uint64_t bits = 0;
    for (unsigned c = 0; c < lockstepChips; ++c) {
        if (found[c] == 0)
            continue;
        const std::uint64_t weight =
            found[c] < 0 ? erasureWeight
                         : static_cast<std::uint64_t>(found[c]);
        if (found[c] > 0)
            bits += weight;
        if (st == RasState::Rebuilding && c == killed) {
            // Below the rebuild watermark the spare device serves the
            // lane, so trouble there is the spare's own health; above
            // it the dead device's erasures are expected and carry no
            // information.
            if (block < rebuildWatermark())
                noteSpareErrors(weight);
            continue;
        }
        noteChipErrors(c, weight);
    }
    return bits;
}

void
RasEngine::noteChipErrors(unsigned chip, std::uint64_t weight)
{
    switch (st) {
      case RasState::Healthy:
      case RasState::Spared: {
        // In Spared the killed chip's lane lives on the spare, so
        // fresh evidence against it is real (spare decay) and the
        // crossing triggers a second failover — degraded this time,
        // since the one spare is already consumed.
        const std::uint64_t level =
            healthLedger.recordChip(chip, weight, sys.now());
        if (level >= cfg.killThreshold && !killQueued) {
            killQueued = true;
            killed = chip;
            rasStats.detectedAt = sys.now();
            // Crossings are observed inside controller callbacks
            // (onPmRead) and patrol completions; failover re-enters
            // the controller (drainPmEur), so it runs one event later.
            sys.events().schedule(sys.now(), [this] { beginFailover(); });
        }
        return;
      }
      case RasState::Draining:
        return; // transition already committed
      case RasState::Migrating:
      case RasState::Degraded:
      case RasState::Rebuilding:
      case RasState::MigratingBack: {
        if (chip == killed)
            return; // expected erasure evidence from the dead lane
                    // (noteFindings routes the spare's own trouble to
                    // noteSpareErrors instead)
        const std::uint64_t level =
            healthLedger.recordChip(chip, weight, sys.now());
        if (level >= cfg.killThreshold) {
            // A second dead chip exceeds the RS budget: report it
            // instead of failing over again (or asserting).
            ++rasStats.doubleKills;
            st = RasState::Unrecoverable;
        }
        return;
      }
      case RasState::Unrecoverable:
        return;
    }
}

void
RasEngine::noteSpareErrors(std::uint64_t weight)
{
    if (st != RasState::Rebuilding)
        return;
    const std::uint64_t level =
        healthLedger.recordChip(spareBucket, weight, sys.now());
    if (level >= spareKillThreshold && !abandonQueued) {
        abandonQueued = true;
        // Observed inside controller callbacks; the fallback re-enters
        // the controller (drainPmEur), so it runs one event later.
        sys.events().schedule(sys.now(), [this] { abandonSpare(); });
    }
}

void
RasEngine::noteRowWrite(unsigned row)
{
    NVCK_ASSERT(row < spans, "wear row out of range");
    ++wearCount[row];
}

void
RasEngine::noteRowErrors(unsigned row, std::uint64_t weight)
{
    if (st != RasState::Healthy && st != RasState::Spared)
        return;
    const std::uint64_t level =
        healthLedger.recordRow(row, weight, sys.now());
    if (level < rowThreshold)
        return;
    ++counts.rowAlarms;
    healthLedger.resetRow(row);
    if (targetedQueued)
        return;
    targetedQueued = true;
    sys.events().schedule(sys.now(), [this, row] {
        targetedQueued = false;
        if (st == RasState::Healthy || st == RasState::Spared)
            issueBurst(row, true);
    });
}

void
RasEngine::beginFailover()
{
    if (st != RasState::Healthy && st != RasState::Spared)
        return;
    st = RasState::Draining;
    ++counts.kills;
    // Every in-flight coalesced code delta retires through the normal
    // row-close path before the lane layout changes underneath it.
    counts.drainedAtFailover += sys.memory().drainPmEur();
    if (cfg.spareEnabled && !spareUsed) {
        // A spare is armed: rebuild the dead chip's lanes onto it and
        // keep the full-strength per-chip layout instead of dropping
        // to the storage-degraded striping.
        spareUsed = true;
        ++counts.rebuilds;
        mirror.onRebuildStart(killed);
        st = RasState::Rebuilding;
        noteEngaged();
        armCopy();
        return;
    }
    engageDegraded();
}

void
RasEngine::noteEngaged()
{
    // A second engagement (spare abandoned, or a kill after Spared)
    // keeps the first detection's latency bookkeeping.
    if (rasStats.engagedAt == 0) {
        accessesAtEngage = accessCount;
        rasStats.engagedAt = sys.now();
    }
}

void
RasEngine::engageDegraded()
{
    mirror.onFailoverStart(killed);
    st = RasState::Migrating;
    noteEngaged();
    armCopy();
}

void
RasEngine::abandonSpare()
{
    abandonQueued = false;
    if (st != RasState::Rebuilding)
        return; // the rebuild already finished before the event ran
    st = RasState::Draining;
    ++counts.spareAbandons;
    // Demand writes kept landing in the per-chip layout while the
    // rebuild ran; retire their coalesced code deltas before the
    // degraded migration starts reading spans.
    counts.drainedAtFailover += sys.memory().drainPmEur();
    engageDegraded();
}

void
RasEngine::chipReplaced()
{
    NVCK_ASSERT(st == RasState::Spared,
                "chip replacement outside the Spared state");
    mirror.onChipReplaced();
    st = RasState::MigratingBack;
    armCopy();
}

unsigned
RasEngine::watermark() const
{
    return mirror.failover ? mirror.failover->watermark() : 0;
}

unsigned
RasEngine::rebuildWatermark() const
{
    return mirror.spare ? mirror.spare->watermark() : 0;
}

void
RasEngine::armCopy()
{
    // A one-shot event tagged with the copy it steps, not a Recurring
    // one: an abandoned rebuild's next step is still queued when the
    // degraded migration arms its first, and that stale step must
    // fall through rather than step the migration.
    const Tick interval = st == RasState::Migrating
                              ? migrateStepInterval
                              : cfg.rebuildStepInterval;
    sys.events().scheduleAfter(interval, [this, copy = st] {
        if (st == copy)
            copyTick();
    });
}

void
RasEngine::copyTick()
{
    const bool migrating = st == RasState::Migrating;
    const unsigned from = mirror.copyWatermark();
    const unsigned moved = mirror.copyStep(
        migrating ? migrateBlocksPerStep : cfg.rebuildBlocksPerStep);
    issueOverheadPairs(moved, from);
    if (migrating)
        counts.migrated += moved;
    else if (st == RasState::Rebuilding)
        counts.rebuiltBlocks += moved;
    if (from + moved < rankBlocks)
        armCopy();
    else
        finishCopy();
}

void
RasEngine::finishCopy()
{
    switch (st) {
      case RasState::Migrating:
        st = RasState::Degraded;
        counts.failovers = 1;
        rasStats.completedAt = sys.now();
        return;
      case RasState::Rebuilding:
        st = RasState::Spared;
        counts.spared = 1;
        rasStats.sparedAt = sys.now();
        killQueued = false; // re-arm detection for a second kill
        resumePatrol();
        return;
      case RasState::MigratingBack:
        st = RasState::Healthy;
        ++counts.repairs;
        rasStats.repairedAt = sys.now();
        // The spare is re-armed and the replacement device starts
        // with a clean slate in the ledger.
        spareUsed = false;
        killQueued = false;
        healthLedger.resetChip(killed);
        healthLedger.resetChip(spareBucket);
        resumePatrol();
        return;
      default:
        NVCK_ASSERT(false, "copy finished outside a copy state");
    }
}

void
RasEngine::issueOverheadPairs(unsigned count, unsigned first_block)
{
    // Model the copy's bus cost: a bounded burst of overhead
    // read+write pairs over the blocks just moved, interleaved with
    // (and backpressured by) demand traffic.
    const Addr pm_base = sys.config().space.pmBase;
    for (unsigned k = 0; k < std::min(count, 4u); ++k) {
        const Addr addr =
            pm_base + static_cast<Addr>(first_block + k) * blockBytes;
        for (const MemOp op : {MemOp::Read, MemOp::Write}) {
            MemRequest req;
            req.addr = addr;
            req.op = op;
            req.isPm = true;
            req.isOverhead = true;
            req.onComplete = [](Tick) {};
            if (!sys.memory().canAccept(op) ||
                !sys.memory().enqueue(std::move(req)))
                ++rasStats.migrationTrafficDropped;
        }
    }
}

// OnlineFailover ------------------------------------------------------

OnlineFailover::OnlineFailover(PmRank &healthy, unsigned failed_chip,
                               unsigned threshold)
    : source(healthy), thresh(threshold),
      target(healthy.blocks())
{
    NVCK_ASSERT(failed_chip < healthy.chips(),
                "failed chip out of range");
}

unsigned
OnlineFailover::step(unsigned max_blocks)
{
    std::uint8_t buf[blockBytes];
    unsigned moved = 0;
    while (moved < max_blocks && cursor < source.blocks()) {
        const auto read = source.readBlock(cursor, buf, thresh);
        if (read.path == ReadPath::Failed) {
            // A standing UE migrates as an explicit reported loss, not
            // as silent garbage.
            target.poisonSpan(cursor / target.blocksPerVlew());
            ++poisoned;
        } else if (!target.isPoisoned(cursor)) {
            target.writeBlock(cursor, buf);
        }
        ++cursor;
        ++moved;
    }
    return moved;
}

// RasMirror -----------------------------------------------------------

RasMirror::RasMirror(System &system, PmRank &pm_rank, PersistOracle &po,
                     const RasConfig &ras_cfg, unsigned thresh,
                     std::uint64_t value_seed)
    : MediaMirror(system, pm_rank, po, value_seed), threshold(thresh)
{
    NVCK_ASSERT(rank.chips() == lockstepChips,
                "RAS ledger expects a 9-chip lockstep rank");
    n.trials = 1;
    eng = std::make_unique<RasEngine>(sys, ras_cfg, rank.blocks(),
                                      spanBlocks, *this);

    CrashHooks hooks;
    hooks.onPmWrite = [this](Addr a, unsigned bank, unsigned slot) {
        demandWrite(blockOf(a), bank, slot);
    };
    // The register may hold nothing: migration overhead writes dirty
    // the EUR without mirrored bursts, and early retires (EUR merges
    // before a VLEW-touching operation) empty it ahead of the row
    // close.
    hooks.onEurDrain = [this](unsigned bank, unsigned slot) {
        drain(bank, slot);
    };
    // Patrol checks run at burst completion; overhead traffic models
    // bandwidth, not data.
    hooks.onPmRead = [this](Addr a, bool patrol, bool overhead) {
        if (!patrol && !overhead)
            demandRead(blockOf(a));
    };
    sys.memory().setCrashHooks(std::move(hooks));
}

// Out of line so the header can hold SpareChip behind a forward
// declaration.
RasMirror::~RasMirror() = default;

void
RasMirror::demandWrite(unsigned block, unsigned bank, unsigned slot)
{
    eng->noteAccess();
    eng->noteRowWrite(spanOf(block));
    ++n.demandWrites;

    std::uint8_t value[blockBytes];
    payload(block, value);

    if (failover && block < failover->watermark()) {
        // Migrated blocks live in the degraded layout; its writes
        // settle code bits linearly at write time (no RS tier, EUR
        // drains model timing only).
        if (failover->degraded().isPoisoned(block)) {
            // The span is a reported loss; the write is accepted but
            // the readback stays an explicit UE until repair.
            oracle.recordBurst(block, value);
            return;
        }
        failover->degraded().writeBlock(block, value);
        oracle.recordBurst(block, value);
        oracle.recordDrain(block);
        ++n.degradedWrites;
        return;
    }

    land(block, value, fullMask());
    hold(block, bank, slot);
}

void
RasMirror::demandRead(unsigned block)
{
    eng->noteAccess();
    ++n.demandReads;
    std::uint8_t out[blockBytes];

    if (failover && block < failover->watermark()) {
        ++n.degradedReads;
        const auto read = failover->degraded().readBlock(block, out);
        if (read.failed)
            ++n.ue;
        else if (!read.dataCorrect)
            ++n.sdc;
        return;
    }

    // Chip-internal EUR merge: a VLEW decoded against stale media code
    // would "correct" a pending durable write away, so the chip folds
    // its EUR-held delta in first whenever a read may touch the VLEWs.
    const unsigned span = spanOf(block);
    retireSpan(span);

    const auto read = rank.readBlock(block, out, threshold);
    if (read.path == ReadPath::Failed) {
        ++n.ue;
        return;
    }
    if (!read.dataCorrect)
        ++n.sdc;
    switch (read.path) {
      case ReadPath::RsAccepted:
        ++n.rsFixes;
        break;
      case ReadPath::VlewFallback:
        ++n.vlewFallbacks;
        break;
      case ReadPath::ChipRecovered:
        ++n.chipRecovered;
        break;
      default:
        break;
    }

    // A chip's erasure reads as an uncorrectable finding; RS symbol or
    // VLEW bit corrections on it read as one correction.
    ChipFindings found{};
    for (unsigned c = 0; c < lockstepChips; ++c) {
        if (read.chipErasureMask & (1u << c))
            found[c] = -1;
        else if (read.chipCorrectionMask & (1u << c))
            found[c] = 1;
    }
    eng->noteFindings(found, block);
    const unsigned total = read.rsCorrections + read.vlewBitCorrections;
    if (total > 0)
        eng->noteRowErrors(span, total);
}

ChipFindings
RasMirror::patrolCheck(unsigned span)
{
    retireSpan(span);
    ChipFindings found;
    for (unsigned c = 0; c < lockstepChips; ++c)
        found[c] = rank.scrubWord(c, span).corrections;
    return found;
}

void
RasMirror::onFailoverStart(unsigned chip)
{
    failover = std::make_unique<OnlineFailover>(rank, chip, threshold);
}

void
RasMirror::onRebuildStart(unsigned chip)
{
    spare = std::make_unique<SpareChip>(rank, threshold, chip);
}

void
RasMirror::onChipReplaced()
{
    spare->beginMigrateBack();
}

unsigned
RasMirror::copyWatermark() const
{
    return failover ? failover->watermark() : spare->watermark();
}

unsigned
RasMirror::copyStep(unsigned max_blocks)
{
    // Migration reads go through the erasure path, the rebuild scrubs
    // survivors and the copy-back scrubs the lane: all VLEW-touching,
    // so fold any demand writes' pending code deltas in first
    // (chip-internal EUR merge). Copies start on a span boundary.
    const unsigned from = copyWatermark();
    const std::uint64_t end = std::min<std::uint64_t>(
        rank.blocks(), std::uint64_t{from} + max_blocks);
    for (unsigned s = from / spanBlocks; s * spanBlocks < end; ++s)
        retireSpan(s);
    if (failover)
        return failover->step(max_blocks);

    // The survivor scrub doubles as patrol evidence for the ledger.
    ChipFindings survivors;
    const std::uint64_t fixed = spare->survivorBitsFixed();
    const unsigned moved = spare->step(max_blocks, survivors);
    n.survivorBits += spare->survivorBitsFixed() - fixed;
    eng->noteFindings(survivors, from);
    return moved;
}

void
RasMirror::noteKillInjected()
{
    accessesAtInjection = eng->accesses();
}

void
RasMirror::judgeDetection(RasTally &tally, std::uint64_t bound) const
{
    if (!engaged())
        return;
    const std::uint64_t at = eng->engageAccess();
    tally.detectAccessesMax =
        at > accessesAtInjection ? at - accessesAtInjection : 0;
    if (tally.detectAccessesMax > bound)
        ++tally.engageOverruns;
}

void
RasMirror::finalCheck(RasTally &tally)
{
    // Drain the remaining EUR state through the controller's row-close
    // path; the hooks retire every mirrored pending block.
    sys.memory().drainPmEur();

    const PersistOracle::Audit a =
        oracle.audit([this](unsigned b, std::uint8_t *out) {
            if (failover && b < failover->watermark())
                return failover->degraded().readBlock(b, out).failed;
            return rank.readBlock(b, out, threshold).path ==
                   ReadPath::Failed;
        });
    tally.ue += a.tornUe + a.collateralUe;
    tally.lostDurable += a.tornOld + a.tornIntermediate + a.violations;
}

RasTally
RasMirror::trialTally()
{
    RasTally tally = n;
    tally += eng->tally();
    finalCheck(tally);
    return tally;
}

// Trial ---------------------------------------------------------------

std::span<const TallyField<RasTally>>
RasTally::fields()
{
    using T = RasTally;
    using R = TallyRule;
    static constexpr TallyField<T> table[] = {
        {"trials", "trials", &T::trials, R::Sum},
        {"patrol_bursts", "patrol", &T::patrolBursts, R::Sum},
        {"patrol_yields", "yields", &T::patrolYields, R::Sum},
        {"scrub_bits", "bits", &T::scrubBits, R::Sum},
        {"demand_reads", "demand rd", &T::demandReads, R::Sum},
        {"demand_writes", "demand wr", &T::demandWrites, R::Sum},
        {"rs_fixes", "rs fixes", &T::rsFixes, R::Sum},
        {"vlew_fallbacks", "vlew", &T::vlewFallbacks, R::Sum},
        {"chip_recovered", "chip rec", &T::chipRecovered, R::Sum},
        {"row_alarms", "alarms", &T::rowAlarms, R::Sum},
        {"targeted_scrubs", "scrubs", &T::targetedScrubs, R::Sum},
        {"kills", "kills", &T::kills, R::Sum},
        {"failovers", "failover", &T::failovers, R::Sum},
        {"migrated_blocks", "migrated", &T::migrated, R::Sum},
        {"degraded_reads", "degr rd", &T::degradedReads, R::Sum},
        {"degraded_writes", "degr wr", &T::degradedWrites, R::Sum},
        {"drained_at_failover", "drained", &T::drainedAtFailover, R::Sum},
        {"detect_accesses_max", "detect", &T::detectAccessesMax, R::Max},
        {"sdc", "sdc", &T::sdc, R::Violation},
        {"lost_durable", "lost", &T::lostDurable, R::Violation},
        {"reported_ue", "UE", &T::ue, R::Violation},
        {"false_kills", "false", &T::falseKills, R::Violation},
        {"missed_failovers", "missed", &T::missedFailovers, R::Violation},
        {"engage_overruns", "late", &T::engageOverruns, R::Violation},
        {"rebuilds", "rebuilds", &T::rebuilds, R::Sum},
        {"rebuilt_blocks", "rebuilt", &T::rebuiltBlocks, R::Sum},
        {"spared", "spared", &T::spared, R::Sum},
        {"spare_abandons", "abandons", &T::spareAbandons, R::Sum},
        {"repairs", "repairs", &T::repairs, R::Sum},
        {"survivor_bits", "surv bits", &T::survivorBits, R::Sum},
        {"missed_spares", "no spare", &T::missedSpares, R::Violation},
        {"missed_repairs", "no repair", &T::missedRepairs, R::Violation},
        {"violations", "violations", &T::violations, R::Sum},
    };
    return table;
}

namespace {

/** The lifecycle trial's fault stream: transient flips, then
 *  recurring victim-chip flips, accumulating stuck-at cells, and the
 *  kill, as far as the plan goes. */
struct FaultDriver : FaultStream
{
    using FaultStream::FaultStream;

    unsigned stuckLeft = 12;

    void
    intermittentTick(Tick stop, Tick step)
    {
        flip(victim);
        if (sys.now() + step < stop) {
            sys.events().scheduleAfter(
                step, [this, stop, step] {
                    intermittentTick(stop, step);
                });
        }
    }

    void
    progressiveTick(Tick stop, Tick step)
    {
        if (stuckLeft == 0)
            return;
        --stuckLeft;
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(rank.blocks()) * chipBeatBytes;
        rank.setStuckBit(victim, rng.below(bytes),
                         static_cast<unsigned>(rng.below(8)),
                         rng.chance(0.5));
        if (sys.now() + step < stop) {
            sys.events().scheduleAfter(
                step, [this, stop, step] {
                    progressiveTick(stop, step);
                });
        }
    }
};

} // namespace

RasTally
runRasTrial(const RasTrialConfig &tc, Rng &rng)
{
    MirroredTrial m(tc, rng);
    RasMirror mirror(m.sys, m.rank, m.oracle, tc.ras, tc.threshold,
                     rng.next());
    RasEngine &eng = mirror.engine();
    FaultDriver driver(m, mirror, rng.next() | 1);

    const auto plan_at_least = [&tc](FaultPlan p) {
        return static_cast<int>(tc.plan) >= static_cast<int>(p);
    };
    const Tick horizon = tc.horizon;
    auto &eq = m.sys.events();
    eq.schedule(horizon / 10, [d = &driver] { d->transientBurst(); });
    if (plan_at_least(FaultPlan::Intermittent)) {
        eq.schedule(horizon / 4, [d = &driver, horizon] {
            d->intermittentTick(horizon / 2, nsToTicks(150));
        });
    }
    if (plan_at_least(FaultPlan::Progressive)) {
        eq.schedule(horizon / 2, [d = &driver, horizon] {
            d->progressiveTick(horizon * 7 / 10, nsToTicks(220));
        });
    }
    if (tc.plan == FaultPlan::ChipKill)
        eq.schedule(horizon * 7 / 10, [d = &driver] { d->kill(); });

    eng.start();
    m.sys.start();
    m.sys.runUntil(horizon);
    if (eng.inTransition())
        m.sys.runUntil(horizon + tc.slack);

    RasTally tally = mirror.trialTally();
    switch (tc.plan) {
      case FaultPlan::Transient:
        // Scattered one-shot faults must age out of the ledger, never
        // trigger failover.
        if (tally.kills > 0)
            ++tally.falseKills;
        break;
      case FaultPlan::Intermittent:
      case FaultPlan::Progressive:
        // Proactive failover is allowed (and tallied) but not required
        // — whether the buckets cross depends on the fault rate.
        break;
      case FaultPlan::ChipKill:
        if (!mirror.completed())
            ++tally.missedFailovers;
        else
            mirror.judgeDetection(tally, tc.detectAccessBound);
        break;
    }
    tally.violations = tally.violationCount();

    NVCK_ASSERT(m.sys.pendingStaleAcks() == 0,
                "stale persist acks without a power cut");
    return tally;
}

// Campaign ------------------------------------------------------------

RasTotals
rasCampaign(std::ostream &os, const SweepOptions &opts,
            const RasCampaignConfig &cfg)
{
    using T = RasTally;
    static const CampaignTable<T> table{
        "fault plan",
        {{&T::trials}, {&T::patrolBursts}, {&T::scrubBits}, {&T::rowAlarms},
         {&T::targetedScrubs}, {&T::kills}, {&T::failovers}, {&T::migrated},
         {&T::degradedReads}, {&T::degradedWrites}, {&T::detectAccessesMax},
         {&T::sdc}, {&T::lostDurable}, {&T::ue}, {&T::falseKills},
         {&T::missedFailovers}, {&T::engageOverruns}, {&T::violations}}};
    return techPlanCampaign(os, opts, cfg, table, &RasTrialConfig::plan,
                            faultPlanNames, runRasTrial);
}

} // namespace nvck
