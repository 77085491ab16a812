#include "syscrash.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"

namespace nvck {

// CampaignWorkload ----------------------------------------------------

CampaignWorkload::CampaignWorkload(const AddressSpace &space,
                                   unsigned cores, std::uint64_t seed)
{
    NVCK_ASSERT(cores > 0, "workload needs a core");
    const std::uint64_t pm_blocks = space.pmBytes / blockBytes;
    const std::uint64_t dram_blocks = space.dramBytes / blockBytes;
    NVCK_ASSERT(pm_blocks >= cores && dram_blocks >= cores,
                "address space too small to strip per core");
    const Rng base(seed);
    coreStates.resize(cores);
    for (unsigned c = 0; c < cores; ++c) {
        CoreState &cs = coreStates[c];
        cs.rng = base.substream(c);
        cs.stripBlocks = pm_blocks / cores;
        cs.stripBase = space.pmBase +
                       static_cast<Addr>(c) * cs.stripBlocks * blockBytes;
        cs.dramBlocks = dram_blocks / cores;
        cs.dramBase = space.dramBase +
                      static_cast<Addr>(c) * cs.dramBlocks * blockBytes;
        cs.logCursor = cs.rng.below(cs.stripBlocks);
        for (unsigned h = 0; h < 4; ++h)
            cs.hot.push_back(cs.stripBase +
                             cs.rng.below(cs.stripBlocks) * blockBytes);
    }
}

void
CampaignWorkload::refill(CoreState &cs)
{
    auto push = [&cs](TraceOp::Kind kind, Addr addr, bool is_pm,
                      unsigned gap) {
        TraceOp op;
        op.kind = kind;
        op.addr = addr;
        op.isPm = is_pm;
        op.gap = gap;
        cs.ops.push_back(op);
    };
    const auto gap = [&cs] {
        return static_cast<unsigned>(cs.rng.below(24));
    };

    const std::uint64_t pick = cs.rng.below(100);
    if (pick < 55) {
        // Sequential log append: store + clwb per block, one fence
        // per group (the WHISPER-style persist shape).
        const unsigned group = 1 + static_cast<unsigned>(cs.rng.below(4));
        for (unsigned i = 0; i < group; ++i) {
            const Addr a = cs.stripBase +
                           (cs.logCursor % cs.stripBlocks) * blockBytes;
            ++cs.logCursor;
            push(TraceOp::Kind::Store, a, true, gap());
            push(TraceOp::Kind::Clean, a, true, 1);
        }
        push(TraceOp::Kind::Fence, 0, false, 1);
    } else if (pick < 70) {
        // Hot-block rewrite: repeated persists to the same block
        // exercise EUR coalescing and write-queue merging.
        const Addr a = cs.hot[cs.rng.below(cs.hot.size())];
        push(TraceOp::Kind::Store, a, true, gap());
        push(TraceOp::Kind::Clean, a, true, 1);
        push(TraceOp::Kind::Fence, 0, false, 1);
    } else if (pick < 82) {
        const unsigned n = 2 + static_cast<unsigned>(cs.rng.below(3));
        for (unsigned i = 0; i < n; ++i) {
            const Addr a = cs.stripBase +
                           cs.rng.below(cs.stripBlocks) * blockBytes;
            push(TraceOp::Kind::Load, a, true, gap());
        }
    } else if (pick < 94) {
        const unsigned n = 2 + static_cast<unsigned>(cs.rng.below(3));
        for (unsigned i = 0; i < n; ++i) {
            const Addr a = cs.dramBase +
                           cs.rng.below(cs.dramBlocks) * blockBytes;
            push(cs.rng.chance(0.5) ? TraceOp::Kind::Store
                                    : TraceOp::Kind::Load,
                 a, false, gap());
        }
    } else {
        // Off-CPU span past the 50ns row-idle threshold so the lazy
        // close policy drains open rows.
        TraceOp idle;
        idle.kind = TraceOp::Kind::Idle;
        idle.idleNs = 60.0 + cs.rng.uniform() * 90.0;
        cs.ops.push_back(idle);
    }
}

TraceOp
CampaignWorkload::next(unsigned core)
{
    CoreState &cs = coreStates.at(core);
    while (cs.ops.empty())
        refill(cs);
    const TraceOp op = cs.ops.front();
    cs.ops.pop_front();
    return op;
}

// MirroredTrial -------------------------------------------------------

namespace {

SystemConfig
compactConfig(const MirroredTrialShape &shape, std::uint64_t seed)
{
    NVCK_ASSERT(shape.rankBlocks >= 32 && shape.rankBlocks % 32 == 0,
                "rank must hold whole VLEW spans");
    SystemConfig cfg = SystemConfig::make(
        shape.tech, proposalScheme(runtimeRberFor(shape.tech)), "echo",
        seed);
    cfg.cores = shape.cores;
    cfg.cache.cores = shape.cores;
    cfg.cache.l1Bytes = 8 * 1024;
    cfg.cache.llcBytes = 64 * 1024;
    cfg.cache.llcWays = 8;
    // Few banks keep the whole rank mirrorable at 2 rows per bank so
    // row conflicts (and therefore EUR drains) happen within a short
    // horizon; aggressive drain thresholds keep bursts flowing.
    cfg.mem.dram.banks = shape.banks;
    cfg.mem.pm.banks = shape.banks;
    cfg.mem.writeMaxAge = nsToTicks(400);
    cfg.mem.writeIdleBurst = 4;
    cfg.mem.writeDrainHigh = 24;
    cfg.mem.writeDrainLow = 8;
    cfg.space.pmBase = 0;
    cfg.space.pmBytes =
        static_cast<std::uint64_t>(shape.rankBlocks) * blockBytes;
    cfg.space.dramBytes = 1u << 20;
    return cfg;
}

} // namespace

MirroredTrial::MirroredTrial(const MirroredTrialShape &shape, Rng &rng)
    : cfg(compactConfig(shape, rng.next() | 1)),
      sys(cfg, std::make_unique<CampaignWorkload>(cfg.space, shape.cores,
                                                  rng.next())),
      rank(shape.rankBlocks), oracle(shape.rankBlocks)
{
    rank.initialize(rng);
    for (unsigned b = 0; b < shape.rankBlocks; ++b)
        oracle.rebase(rank, b);
}

// MediaMirror ---------------------------------------------------------

MediaMirror::MediaMirror(System &s, PmRank &r, PersistOracle &o,
                         std::uint64_t value_seed)
    : sys(s), rank(r), oracle(o),
      spanBlocks(r.params().vlewDataBytes / chipBeatBytes), rng(value_seed)
{
    const MemControllerConfig &mc = sys.config().mem;
    NVCK_ASSERT(mc.eurEnabled, "mirrored campaigns need the EUR path");
    NVCK_ASSERT(sys.config().space.pmBase == 0,
                "mirrored campaigns place PM at 0");
    NVCK_ASSERT(rank.blocks() % spanBlocks == 0,
                "rank must hold whole VLEW spans");
    slotsPerBank = mc.pm.rowBytes / (mc.dataChips * mc.vlewDataBytes);
    NVCK_ASSERT(mc.pm.banks > 0 && slotsPerBank > 0,
                "degenerate PM geometry");
    registers.assign(static_cast<std::size_t>(mc.pm.banks) * slotsPerBank,
                     {});
    const unsigned spans = rank.blocks() / spanBlocks;
    spanRegister.assign(spans, UINT32_MAX);
    spanHeld.assign(spans, 0);
}

unsigned
MediaMirror::blockOf(Addr addr) const
{
    const std::uint64_t block = addr / blockBytes;
    NVCK_ASSERT(block < rank.blocks(), "PM access beyond the mirrored rank");
    return static_cast<unsigned>(block);
}

void
MediaMirror::land(unsigned block, const std::uint8_t *value,
                  std::uint16_t data_mask)
{
    rank.applyTornWrite(block, value, data_mask, 0);
    oracle.recordBurst(block, value);
}

void
MediaMirror::burst(unsigned block, std::uint16_t data_mask)
{
    std::uint8_t value[blockBytes];
    payload(block, value);
    land(block, value, data_mask);
}

std::uint32_t
MediaMirror::reg(unsigned bank, unsigned slot) const
{
    NVCK_ASSERT(slot < slotsPerBank, "EUR slot out of range");
    return bank * slotsPerBank + slot;
}

void
MediaMirror::hold(unsigned block, unsigned bank, unsigned slot)
{
    const std::uint32_t r = reg(bank, slot);
    auto &held_blocks = registers.at(r);
    const unsigned span = spanOf(block);
    if (held_blocks.empty())
        spanRegister[span] = r;
    else
        // Open-row exclusivity: one register coalesces one VLEW span
        // at a time; a conflicting span must have drained at the row
        // switch before this burst.
        NVCK_ASSERT(spanOf(held_blocks.front()) == span,
                    "EUR register coalescing across spans");
    if (std::find(held_blocks.begin(), held_blocks.end(), block) ==
        held_blocks.end()) {
        held_blocks.push_back(block);
        ++spanHeld[span];
    }
}

void
MediaMirror::retire(unsigned block)
{
    // Second half of the two-phase write: bring the media code bits
    // from the oracle's settled image up to the current data. Only a
    // held block retires, and a degraded-side write (settled at once)
    // is never held, so the block is still pending.
    NVCK_ASSERT(oracle.pending(block), "retire of a settled block");
    rank.drainCodeBits(block, oracle.settled(block).data());
    oracle.recordDrain(block);
    NVCK_ASSERT(spanHeld[spanOf(block)] > 0, "span held count underflow");
    --spanHeld[spanOf(block)];
}

void
MediaMirror::retireRegister(std::uint32_t r)
{
    for (const unsigned b : registers[r])
        retire(b);
    registers[r].clear();
}

void
MediaMirror::retireSpan(unsigned span)
{
    if (spanHeld[span] == 0)
        return;
    retireRegister(spanRegister[span]);
    NVCK_ASSERT(spanHeld[span] == 0, "span retire left stragglers");
}

// SysCrashMirror ------------------------------------------------------

SysCrashMirror::SysCrashMirror(System &s, PmRank &r, PersistOracle &o,
                               CutSite st, std::uint64_t occ,
                               std::uint64_t value_seed)
    : MediaMirror(s, r, o, value_seed), site(st), occurrence(occ)
{
    CrashHooks hooks;
    hooks.onPmWrite = [this](Addr a, unsigned bank, unsigned slot) {
        onPmWrite(a, bank, slot);
    };
    hooks.onEurDrain = [this](unsigned bank, unsigned slot) {
        onEurDrain(bank, slot);
    };
    hooks.onRowClose = [this](unsigned bank) { onRowClose(bank); };
    sys.memory().setCrashHooks(std::move(hooks));
}

void
SysCrashMirror::onPmWrite(Addr addr, unsigned bank, unsigned slot)
{
    if (cut)
        return;
    ++burstCount;
    const unsigned block = blockOf(addr);
    const bool tearing =
        site == CutSite::AtPmWrite && burstCount == occurrence;
    burst(block, tearing ? partialChipMask()
                               : fullMask());
    hold(block, bank, slot);
    if (tearing) {
        cutNow();
    }
}

void
SysCrashMirror::onEurDrain(unsigned bank, unsigned slot)
{
    if (cut)
        return;
    ++drainCount;
    NVCK_ASSERT(!held(bank, slot).empty(),
                "EUR drain for a register with no mirrored bursts");
    if (site == CutSite::AtEurDrain && drainCount == occurrence) {
        // Torn mid-drain: a strict chip subset retired the register's
        // coalesced code delta before the cut. The blocks stay pending
        // — recovery decides old/new/UE.
        const std::uint16_t mask = partialChipMask();
        for (unsigned b : held(bank, slot))
            rank.drainCodeBits(b, oracle.settled(b).data(), mask);
        cutNow();
        return;
    }
    drain(bank, slot);
}

void
SysCrashMirror::onRowClose(unsigned bank)
{
    if (cut)
        return;
    (void)bank;
    ++rowCloseCount;
    if (site == CutSite::AtRowClose && rowCloseCount == occurrence) {
        // Cut before any register retires: the whole row's EUR state
        // dies; the subsequent onEurDrain calls see the frozen mirror.
        cutNow();
    }
}

void
SysCrashMirror::cutNow()
{
    if (cut)
        return;
    cut = true;
    // ADR stored energy flushes the queued PM writes' data bursts in
    // full; their code deltas die in the EUR like everyone else's.
    for (Addr a : sys.memory().queuedPmWrites()) {
        ++flushCount;
        burst(blockOf(a), fullMask());
    }
    sys.requestHalt();
}

// Trial ---------------------------------------------------------------

std::span<const TallyField<SysCrashTally>>
SysCrashTally::fields()
{
    using T = SysCrashTally;
    using R = TallyRule;
    static constexpr TallyField<T> table[] = {
        {"trials", "trials", &T::trials, R::Sum},
        {"cuts_at_site", "@site", &T::cutsAtSite, R::Sum},
        {"bursts", "bursts", &T::bursts, R::Sum},
        {"drains", "drains", &T::drains, R::Sum},
        {"flushed_at_cut", "flushed", &T::flushedAtCut, R::Sum},
        {"pending_at_cut", "pending", &T::pendingAtCut, R::Sum},
        {"torn_old", "-> old", &T::tornOld, R::Sum},
        {"torn_new", "-> new", &T::tornNew, R::Sum},
        {"torn_intermediate", "-> mid", &T::tornIntermediate, R::Sum},
        {"torn_ue", "-> UE", &T::tornUe, R::Sum},
        {"collateral_ue", "collateral", &T::collateralUe, R::Sum},
        {"chip_kills", "kills", &T::chipKills, R::Sum},
        {"stale_acks_absorbed", "stale acks", &T::staleAcksAbsorbed,
         R::Sum},
        {"block_violations", "violations", &T::violations, R::Violation},
    };
    return table;
}

namespace {

std::uint64_t
occurrenceFor(CutSite site, Rng &rng)
{
    switch (site) {
      case CutSite::RandomTick:
        return 0;
      case CutSite::AtPmWrite:
        return 1 + rng.below(48);
      case CutSite::AtRowClose:
        return 1 + rng.below(6);
      case CutSite::AtEurDrain:
        return 1 + rng.below(12);
    }
    return 0;
}

} // namespace

SysCrashTally
runSysCrashTrial(const SysCrashTrialConfig &tc, Rng &rng)
{
    MirroredTrial m(tc, rng);
    auto &[cfg, sys, rank, oracle] = m;
    SysCrashTally tally;
    tally.trials = 1;

    SysCrashMirror mirror(sys, rank, oracle, tc.site,
                          occurrenceFor(tc.site, rng), rng.next());

    sys.start();
    if (tc.site == CutSite::RandomTick) {
        const Tick cut_at =
            tc.horizon / 4 + rng.below(tc.horizon - tc.horizon / 4);
        sys.runUntil(cut_at);
    } else {
        sys.runUntil(tc.horizon);
    }

    // A hook cut halted the loop mid-event; otherwise we reached the
    // tick (or horizon fallback) with the machine still alive and cut
    // between events.
    const bool between_events = !mirror.cutDone();
    if (between_events)
        mirror.cutNow();
    else
        tally.cutsAtSite = 1;

    const std::uint64_t flushed = mirror.flushedAtCut();
    const PowerFailReport pf = sys.powerFail();
    if (between_events) {
        // No events ran between the mirror's queue capture and the
        // real cut: the controller's ADR flush must match it exactly.
        // (After a mid-event hook cut the in-flight schedule pass may
        // still issue captured writes before the halt lands — same
        // media outcome, smaller queue.)
        NVCK_ASSERT(pf.controller.pmWritesFlushed == flushed,
                    "ADR flush diverged from the mirrored queue");
    }

    if (rng.chance(tc.chipKillFraction)) {
        rank.failChip(static_cast<unsigned>(rng.below(rank.chips())),
                      rng);
        tally.chipKills = 1;
    }

    rank.crashRecovery(tc.threshold);

    tally.bursts = mirror.bursts();
    tally.drains = mirror.drains();
    tally.flushedAtCut = flushed;
    tally.pendingAtCut = oracle.pendingCount();

    const PersistOracle::Audit a =
        oracle.audit([&](unsigned b, std::uint8_t *out) {
            return rank.readBlock(b, out, tc.threshold).path ==
                   ReadPath::Failed;
        });
    tally.tornOld = a.tornOld;
    tally.tornNew = a.tornNew;
    tally.tornIntermediate = a.tornIntermediate;
    tally.tornUe = a.tornUe;
    tally.collateralUe = a.collateralUe;
    tally.violations = a.violations;

    if (tc.rebootDrive) {
        // Drive the rebooted machine: stranded request chains complete
        // against the revived controller and their orphaned persist
        // acks must be absorbed (never underflow) by the stale-ack
        // ledger. The mirror stays frozen — the media image and its
        // classification above are final.
        const std::size_t stale0 = sys.pendingStaleAcks();
        NVCK_ASSERT(stale0 == pf.persistsInFlight,
                    "stale-ack ledger out of step with the cut report");
        sys.runUntil(sys.now() + tc.horizon / 4);
        const std::size_t stale1 = sys.pendingStaleAcks();
        NVCK_ASSERT(stale1 <= stale0, "stale acks grew after reboot");
        tally.staleAcksAbsorbed = stale0 - stale1;
    }
    return tally;
}

// Campaign ------------------------------------------------------------

SysCrashTotals
systemCrashCampaign(std::ostream &os, const SweepOptions &opts,
                    const SysCrashCampaignConfig &cfg)
{
    return techPlanCampaign(os, opts, cfg,
                            CampaignTable<SysCrashTally>{"cut site", {}},
                            &SysCrashTrialConfig::site, cutSiteNames,
                            runSysCrashTrial);
}

} // namespace nvck
