#include "system.hh"

#include "common/log.hh"

namespace nvck {

namespace {

/** Retry backoff when a controller queue is full. */
constexpr Tick retryDelay = nsToTicks(20);

/** LLC hit latency in core cycles (Table I). */
constexpr Cycle llcHitCycles = 14;

} // namespace

System::System(const SystemConfig &config)
    : System(config, [&config]() -> std::unique_ptr<Workload> {
          QueryProfile prof = findProfile(config.workload);
          if (config.gapOverride != 0)
              prof.gapMean = config.gapOverride;
          return std::make_unique<SyntheticWorkload>(
              prof, config.space, config.cores, config.seed);
      }())
{
}

System::System(const SystemConfig &config,
               std::unique_ptr<Workload> external_workload)
    : cfg(config),
      mem(eq, cfg.mem),
      hierarchy(cfg.cache, *this),
      bench(std::move(external_workload)),
      rng(cfg.seed * 31 + 7),
      persistsInFlight(cfg.cores, 0),
      drainWaiters(cfg.cores)
{
    NVCK_ASSERT(bench != nullptr, "system needs a workload");
    for (unsigned c = 0; c < cfg.cores; ++c)
        cores.push_back(
            std::make_unique<Core>(c, eq, *this, *bench, cfg.core));
}

void
System::start()
{
    for (auto &core : cores)
        core->start();
}

std::uint32_t
System::parkIssue(MemRequest req, std::function<void(Tick)> on_accept)
{
    std::uint32_t s;
    if (freeIssueSlot != noSlot) {
        s = freeIssueSlot;
        freeIssueSlot = issueSlots[s].next;
    } else {
        s = static_cast<std::uint32_t>(issueSlots.size());
        issueSlots.emplace_back();
    }
    issueSlots[s].req = std::move(req);
    issueSlots[s].onAccept = std::move(on_accept);
    return s;
}

void
System::retryIssue(std::uint32_t s)
{
    if (!mem.enqueue(issueSlots[s].req)) {
        eq.scheduleAfter(retryDelay, [this, s] { retryIssue(s); });
        return;
    }
    // Recycle before invoking: the acceptance callback may issue more
    // traffic (and re-park into this very slot) — everything it needs
    // has been moved out.
    auto on_accept = std::move(issueSlots[s].onAccept);
    issueSlots[s].next = freeIssueSlot;
    freeIssueSlot = s;
    if (on_accept)
        on_accept(eq.now());
}

void
System::issueAt(Tick when, MemRequest req,
                std::function<void(Tick)> on_accept)
{
    if (when > eq.now()) {
        const std::uint32_t s =
            parkIssue(std::move(req), std::move(on_accept));
        eq.schedule(when, [this, s] { retryIssue(s); });
        return;
    }
    if (!mem.enqueue(req)) {
        const std::uint32_t s =
            parkIssue(std::move(req), std::move(on_accept));
        eq.scheduleAfter(retryDelay, [this, s] { retryIssue(s); });
        return;
    }
    if (on_accept)
        on_accept(eq.now());
}

void
System::vlewBlockDone(std::uint32_t v, Tick t)
{
    VlewFetch &f = vlewFetches[v];
    if (--f.remaining != 0)
        return;
    if (f.onComplete) {
        const Tick done = t + f.decodeLat;
        eq.schedule(done, [this, v, done] {
            auto cb = std::move(vlewFetches[v].onComplete);
            vlewFetches[v].next = freeVlewFetch;
            freeVlewFetch = v;
            cb(done);
        });
        return;
    }
    f.next = freeVlewFetch;
    freeVlewFetch = v;
}

void
System::launchVlewFetch(Addr addr, Tick when,
                        std::function<void(Tick)> on_complete)
{
    const unsigned blocks = cfg.scheme.vlewFetchBlocks;
    // Align to the VLEW's 32-block span so the over-fetch enjoys the
    // row-buffer locality the layout gives it (Fig 6).
    const unsigned blocks_per_vlew =
        cfg.mem.vlewDataBytes / chipBeatBytes;
    const Addr base = addr / (blocks_per_vlew * blockBytes) *
                      (blocks_per_vlew * blockBytes);

    // The join counter and the decode callback live in a pooled slot;
    // each block read only captures the slot index.
    std::uint32_t v;
    if (freeVlewFetch != noSlot) {
        v = freeVlewFetch;
        freeVlewFetch = vlewFetches[v].next;
    } else {
        v = static_cast<std::uint32_t>(vlewFetches.size());
        vlewFetches.emplace_back();
    }
    vlewFetches[v].remaining = blocks;
    vlewFetches[v].decodeLat = cfg.scheme.vlewDecodeLatency;
    vlewFetches[v].onComplete = std::move(on_complete);

    for (unsigned b = 0; b < blocks; ++b) {
        MemRequest rd;
        rd.addr = base + static_cast<Addr>(b) * blockBytes;
        rd.op = MemOp::Read;
        rd.isPm = true;
        rd.isOverhead = true;
        rd.onComplete = [this, v](Tick t) { vlewBlockDone(v, t); };
        issueAt(when, rd);
    }
}

bool
System::access(unsigned core, Addr addr, bool is_write, bool is_pm,
               Tick when, Cycle *latency_cycles, Core &requester)
{
    const HitLevel level = hierarchy.access(core, addr, is_write, is_pm);
    if (level == HitLevel::L1) {
        *latency_cycles = 1;
        return true;
    }
    if (level == HitLevel::LLC) {
        *latency_cycles = llcHitCycles;
        return true;
    }

    // Off-chip: the data return resumes the requester directly. A
    // one-pointer callback stays inside std::function's small-buffer
    // storage, so the demand path allocates nothing.
    Core *rp = &requester;
    auto on_complete = [rp](Tick t) { rp->memComplete(t); };

    if (is_write) {
        // Write-allocate: the store occupies a miss-window slot until
        // the fill read returns, but the core does not wait for the
        // data itself.
        MemRequest fill;
        fill.addr = addr;
        fill.op = MemOp::Read;
        fill.isPm = is_pm;
        fill.onComplete = on_complete;
        issueAt(when, fill);
        return false;
    }

    // Demand load miss. Under the proposal a small fraction of PM
    // reads carry more byte errors than the acceptance threshold and
    // must fetch the whole VLEW (Fig 9).
    if (is_pm && cfg.scheme.vlewFetchProb > 0.0 &&
        rng.chance(cfg.scheme.vlewFetchProb)) {
        sysStats.vlewFetches.inc();
        launchVlewFetch(addr, when, on_complete);
        return false;
    }

    MemRequest rd;
    rd.addr = addr;
    rd.op = MemOp::Read;
    rd.isPm = is_pm;
    rd.onComplete = on_complete;
    issueAt(when, rd);
    return false;
}

void
System::clean(unsigned core, Addr addr, bool is_pm, Tick when)
{
    NVCK_ASSERT(cleaningCore == -1, "re-entrant clean");
    cleaningCore = static_cast<int>(core);
    cleaningWhen = when;
    hierarchy.clean(core, addr, is_pm);
    cleaningCore = -1;
}

void
System::writeBlock(Addr addr, bool is_pm, bool omv_hit)
{
    const int pcore = cleaningCore;
    const Tick when = pcore >= 0 ? cleaningWhen : eq.now();

    MemRequest wr;
    wr.addr = addr;
    wr.op = MemOp::Write;
    wr.isPm = is_pm;

    // ADR-style persistence domain: a PM write is durable once the
    // memory controller accepts it, so fences wait for acceptance (and
    // for any old-data fetch the XOR-sum write needed), not for the
    // slow NVRAM cell write.
    std::function<void(Tick)> on_accept;
    if (is_pm && pcore >= 0) {
        sysStats.persists.inc();
        persistIssued(static_cast<unsigned>(pcore));
        on_accept = [this, pcore](Tick t) {
            persistDone(static_cast<unsigned>(pcore), t);
        };
    }

    const bool fetch_old =
        is_pm && (cfg.scheme.fetchOldAlways ||
                  (cfg.scheme.fetchOldOnOmvMiss && !omv_hit));
    if (fetch_old) {
        // The processor must read and correct the old data before it
        // can send the XOR-sum write (Section IV-B). The deferred write
        // parks in a pooled slot; the read's completion chains to it by
        // index instead of dragging the request through two closures.
        sysStats.oldDataFetches.inc();
        const std::uint32_t s =
            parkIssue(std::move(wr), std::move(on_accept));
        MemRequest rd;
        rd.addr = addr;
        rd.op = MemOp::Read;
        rd.isPm = true;
        rd.isOverhead = true;
        rd.onComplete = [this, s](Tick t) {
            eq.schedule(t, [this, s] { retryIssue(s); });
        };
        issueAt(when, rd);
        return;
    }
    issueAt(when, std::move(wr), std::move(on_accept));
}

bool
System::persistsPending(unsigned core) const
{
    return persistsInFlight.at(core) > 0;
}

void
System::onPersistDrain(unsigned core, Core &requester)
{
    NVCK_ASSERT(!drainWaiters.at(core), "double fence wait");
    if (persistsInFlight[core] == 0) {
        const Tick now = eq.now();
        Core *rp = &requester;
        eq.schedule(now, [rp, now] { rp->fenceResume(now); });
        return;
    }
    drainWaiters[core] = &requester;
}

void
System::persistIssued(unsigned core)
{
    ++persistsInFlight.at(core);
}

void
System::persistDone(unsigned core, Tick when)
{
    if (persistsInFlight.at(core) == 0) {
        // A write that was in an event-queue retry/fetch chain at a
        // power cut completes against the rebooted machine; its
        // persist bookkeeping died with the cores.
        NVCK_ASSERT(stalePersistAcks > 0, "persist underflow");
        --stalePersistAcks;
        return;
    }
    if (--persistsInFlight[core] == 0 && drainWaiters[core]) {
        Core *waiter = drainWaiters[core];
        drainWaiters[core] = nullptr;
        waiter->fenceResume(when);
    }
}

void
System::resetStats()
{
    mem.resetStats();
    hierarchy.resetStats();
    sysStats = SystemStats{};
    for (auto &core : cores)
        core->resetStats();
}

PowerFailReport
System::powerFail()
{
    PowerFailReport report;
    report.caches = hierarchy.discardVolatile();
    report.controller = mem.powerCut();
    for (const unsigned pending : persistsInFlight)
        report.persistsInFlight += pending;
    stalePersistAcks += report.persistsInFlight;
    std::fill(persistsInFlight.begin(), persistsInFlight.end(), 0u);
    // The waiters' continuations belong to cores that no longer exist;
    // drop them without resuming.
    drainWaiters.assign(drainWaiters.size(), nullptr);
    cleaningCore = -1;
    return report;
}

} // namespace nvck
