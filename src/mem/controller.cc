#include "controller.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace nvck {

MemController::MemController(EventQueue &event_queue,
                             const MemControllerConfig &config)
    : eq(event_queue),
      cfg(config),
      banks(2 * config.dram.banks),
      eur(config.pm.banks,
          config.pm.rowBytes / config.dataChips / config.vlewDataBytes)
{
    NVCK_ASSERT(cfg.dram.banks == cfg.pm.banks,
                "ranks with differing bank counts not supported");
    NVCK_ASSERT(cfg.writeDrainLow < cfg.writeDrainHigh,
                "drain watermarks inverted");
}

const TimingParams &
MemController::timing(bool is_pm) const
{
    return is_pm ? cfg.pm : cfg.dram;
}

unsigned
MemController::blocksPerRow(bool is_pm) const
{
    return timing(is_pm).rowBytes / blockBytes;
}

void
MemController::decode(const MemRequest &req, Queued &out) const
{
    // VLEW-granular bank interleaving: consecutive 32-block (2KB)
    // VLEW-sized chunks rotate across banks. Sequential streams (undo
    // logs above all) then use every bank while each chunk still fills
    // one VLEW contiguously, which is what the EUR coalesces. Within a
    // bank, a row holds rowBytes/dataChips/vlewDataBytes chunks.
    const TimingParams &tp = timing(req.isPm);
    const std::uint64_t block = req.addr / blockBytes;
    const unsigned blocks_per_vlew = cfg.vlewDataBytes / chipBeatBytes;
    const std::uint64_t chunk = block / blocks_per_vlew;
    const unsigned bank = static_cast<unsigned>(chunk % tp.banks);
    const std::uint64_t per_bank_chunk = chunk / tp.banks;
    const unsigned vlews_per_row =
        tp.rowBytes / cfg.dataChips / cfg.vlewDataBytes;
    out.row = per_bank_chunk / vlews_per_row;
    out.vlewSlot = static_cast<unsigned>(per_bank_chunk % vlews_per_row);
    out.rankBank = (req.isPm ? tp.banks : 0) + bank;
}

bool
MemController::canAccept(MemOp op) const
{
    if (op == MemOp::Read)
        return readQueue.size() < cfg.readQueueCap;
    return writeQueue.size() < cfg.writeQueueCap;
}

bool
MemController::enqueue(MemRequest req)
{
    if (!canAccept(req.op))
        return false;
    const MemOp op = req.op;
    Queued q;
    decode(req, q);
    q.req = std::move(req);
    q.enqueued = eq.now();

    if (op == MemOp::Read) {
        readQueue.push_back(std::move(q));
        statistics.readQueueDepth.sample(
            static_cast<double>(readQueue.size()));
    } else {
        // Same-block writes coalesce in the write queue (the newer data
        // simply replaces the queued payload in a real controller).
        const Addr block = q.req.addr / blockBytes;
        bool merged = false;
        for (auto &pending : writeQueue) {
            if (pending.req.addr / blockBytes == block &&
                pending.req.isPm == q.req.isPm) {
                // Preserve both completion callbacks.
                if (pending.req.onComplete && q.req.onComplete) {
                    auto first = std::move(pending.req.onComplete);
                    auto second = std::move(q.req.onComplete);
                    q.req.onComplete = [first = std::move(first),
                                        second = std::move(second)](
                                           Tick t) {
                        first(t);
                        second(t);
                    };
                } else if (pending.req.onComplete) {
                    q.req.onComplete = std::move(pending.req.onComplete);
                }
                pending.req = std::move(q.req);
                merged = true;
                statistics.coalescedWrites.inc();
                break;
            }
        }
        if (!merged)
            writeQueue.push_back(std::move(q));
        statistics.writeQueueDepth.sample(
            static_cast<double>(writeQueue.size()));
    }
    requestScheduling(eq.now());
    return true;
}

void
MemController::requestScheduling(Tick when)
{
    if (wakeScheduled && wakeAt <= when)
        return;
    // Any wake already queued for a later tick is superseded: bumping
    // the generation turns it into a no-op when it fires, so exactly
    // one wake is ever live.
    wakeScheduled = true;
    wakeAt = when;
    const std::uint64_t gen = ++wakeGen;
    eq.schedule(when, [this, gen] { wake(gen); });
}

void
MemController::wake(std::uint64_t gen)
{
    if (gen != wakeGen)
        return;
    wakeScheduled = false;
    scheduleLoop();
    NVCK_ASSERT(idle() || (wakeScheduled && wakeAt > eq.now()),
                "controller wake at tick ", eq.now(),
                " left work queued without re-arming at a later tick");
}

int
MemController::pickFrom(const std::deque<Queued> &queue,
                        Tick &earliest) const
{
    // FR-FCFS over *ready* requests: among those whose bank can issue
    // now, row hits beat misses and age breaks ties. Requests whose
    // bank is busy never block ready ones; if nothing is ready, report
    // the soonest start so the caller can sleep until then.
    int best_ready = -1;
    bool best_ready_hit = false;
    int soonest = -1;
    Tick soonest_start = 0;
    const Tick now = eq.now();
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Queued &q = queue[i];
        const BankState &bank = banks[q.rankBank];
        const TimingParams &tp = timing(q.req.isPm);
        const Tick start = std::max(now, bank.readyAt);
        if (start <= now) {
            const bool hit =
                bank.openRow == static_cast<std::int64_t>(q.row) &&
                start < bank.lastUse + tp.rowIdleClose;
            if (best_ready < 0 || (hit && !best_ready_hit)) {
                best_ready = static_cast<int>(i);
                best_ready_hit = hit;
            }
        }
        if (soonest < 0 || start < soonest_start) {
            soonest = static_cast<int>(i);
            soonest_start = start;
        }
    }
    if (best_ready >= 0) {
        earliest = now;
        return best_ready;
    }
    earliest = soonest_start;
    return soonest;
}

Tick
MemController::closeRow(unsigned rank_bank, BankState &bank)
{
    bank.openRow = -1;
    if (!cfg.eurEnabled)
        return 0;
    const unsigned pm_rank_base = cfg.dram.banks;
    if (rank_bank < pm_rank_base)
        return 0; // DRAM rank has no EUR
    const unsigned pm_bank = rank_bank - pm_rank_base;
    if (crashHooks.onRowClose)
        crashHooks.onRowClose(pm_bank);
    // Registers retire lowest slot first; the observer sees each one
    // so crash injectors can cut the drain at any prefix.
    unsigned drained;
    if (crashHooks.onEurDrain) {
        drained =
            eur.drainSlots(pm_bank, [this, pm_bank](unsigned slot) {
                crashHooks.onEurDrain(pm_bank, slot);
            });
    } else {
        drained = eur.drain(pm_bank);
    }
    return static_cast<Tick>(drained) * cfg.eurDrainPerReg;
}

void
MemController::issue(Queued q)
{
    BankState &bank = banks[q.rankBank];
    const TimingParams &tp = timing(q.req.isPm);
    const bool is_read = q.req.op == MemOp::Read;

    Tick start = std::max(eq.now(), bank.readyAt);

    // Lazy row-idle close: the row policy precharged this bank in the
    // background after 50ns of inactivity (draining the EUR first).
    if (bank.openRow >= 0 && start >= bank.lastUse + tp.rowIdleClose) {
        const Tick closed_at = bank.lastUse + tp.rowIdleClose;
        const Tick drain = closeRow(q.rankBank, bank);
        const Tick free_at = closed_at + drain + tp.tRP;
        start = std::max(start, free_at);
    }

    Tick access_lat = 0;
    if (bank.openRow == static_cast<std::int64_t>(q.row)) {
        statistics.rowHits.inc();
    } else if (bank.openRow < 0) {
        statistics.rowMisses.inc();
        access_lat = tp.tRCD;
    } else {
        // Conflict: drain EUR, precharge, activate.
        statistics.rowConflicts.inc();
        const Tick drain = closeRow(q.rankBank, bank);
        access_lat = drain + tp.tRP + tp.tRCD;
    }
    bank.openRow = static_cast<std::int64_t>(q.row);

    const Tick cas = is_read ? tp.tCAS : tp.tCWD;
    const Tick device_ready = start + access_lat + cas;
    const Tick xfer_start = std::max(device_ready, busFreeAt);
    const Tick xfer_done = xfer_start + tp.tBurst;
    busFreeAt = xfer_done;
    statistics.busBusyTicks += tp.tBurst;

    Tick finish = xfer_done;
    if (!is_read) {
        Tick twr = tp.tWR;
        if (q.req.isPm) {
            twr = static_cast<Tick>(
                      static_cast<double>(twr) * cfg.pmWriteScale) +
                  cfg.pmWriteExtra;
        }
        finish = xfer_done + twr;
        if (cfg.eurEnabled && q.req.isPm) {
            const unsigned pm_bank = q.rankBank - cfg.dram.banks;
            eur.recordWrite(pm_bank, q.vlewSlot);
            // The data burst is on the media; the code-bit delta now
            // exists only in the (volatile) EUR until the row closes.
            // Overhead writes (RAS migration traffic) dirty the EUR
            // like any other write but carry no new persist intent, so
            // the crash mirror is not told about them.
            if (!q.req.isOverhead && crashHooks.onPmWrite)
                crashHooks.onPmWrite(q.req.addr, pm_bank, q.vlewSlot);
        }
    }

    bank.readyAt = finish;
    bank.lastUse = finish;

    if (is_read && q.req.isPm && crashHooks.onPmRead)
        crashHooks.onPmRead(q.req.addr, q.req.isPatrol,
                            q.req.isOverhead);

    // Statistics.
    if (q.req.isPatrol)
        statistics.patrolReads.inc();
    if (q.req.isOverhead) {
        (is_read ? statistics.overheadReads : statistics.overheadWrites)
            .inc();
    } else if (q.req.isPm) {
        (is_read ? statistics.pmReads : statistics.pmWrites).inc();
    } else {
        (is_read ? statistics.dramReads : statistics.dramWrites).inc();
    }
    if (is_read)
        statistics.readLatency.sample(ticksToNs(finish - q.enqueued));
    else
        statistics.writeLatency.sample(ticksToNs(finish - q.enqueued));

    if (q.req.onComplete) {
        eq.schedule(finish, [cb = std::move(q.req.onComplete),
                             finish] { cb(finish); });
    }
}

void
MemController::scheduleLoop()
{
    for (;;) {
        if (writeQueue.size() >= cfg.writeDrainHigh)
            draining = true;
        else if (writeQueue.size() <= cfg.writeDrainLow)
            draining = false;

        if (readQueue.empty() && writeQueue.empty()) {
            flushing = false;
            return;
        }
        // An age- or idle-triggered flush runs the queue dry so that
        // queued row-neighbours (log appends) drain back-to-back and
        // coalesce in the row buffer and EUR.
        if (writeQueue.empty())
            flushing = false;

        // Decide whether writes may issue this round. Writes are held
        // and drained in bursts (watermark hysteresis, an age bound, or
        // an idle-burst threshold when no reads are waiting) so that
        // row-local writes — undo-log appends above all — coalesce in
        // the row buffer and in the EUR.
        bool want_writes = false;
        if (!writeQueue.empty()) {
            if (draining || flushing) {
                want_writes = true;
            } else {
                const Tick oldest_age =
                    eq.now() - writeQueue.front().enqueued;
                if (oldest_age >= cfg.writeMaxAge ||
                    (readQueue.empty() &&
                     writeQueue.size() >= cfg.writeIdleBurst)) {
                    flushing = true;
                    want_writes = true;
                }
            }
        }

        // Ready reads always go first (read priority); writes fill
        // banks no ready read wants. A read whose bank is busy never
        // blocks traffic to other banks.
        Tick read_earliest = 0;
        const int read_idx =
            readQueue.empty() ? -1 : pickFrom(readQueue, read_earliest);
        if (read_idx >= 0 && read_earliest <= eq.now()) {
            Queued chosen =
                std::move(readQueue[static_cast<std::size_t>(read_idx)]);
            readQueue.erase(readQueue.begin() + read_idx);
            issue(std::move(chosen));
            continue;
        }

        Tick write_earliest = 0;
        if (want_writes) {
            const int write_idx = pickFrom(writeQueue, write_earliest);
            if (write_earliest <= eq.now()) {
                Queued chosen = std::move(
                    writeQueue[static_cast<std::size_t>(write_idx)]);
                writeQueue.erase(writeQueue.begin() + write_idx);
                issue(std::move(chosen));
                continue;
            }
        }

        // Nothing can issue now. Sleep until the earliest tick at which
        // this decision could change: a bank freeing up for a waiting
        // read or an eligible write, or — while writes are held — the
        // oldest write reaching the age bound. Queue-content changes
        // (enqueue) wake the loop on their own.
        Tick next = read_idx >= 0 ? read_earliest
                                  : std::numeric_limits<Tick>::max();
        if (want_writes) {
            next = std::min(next, write_earliest);
        } else if (!writeQueue.empty()) {
            next = std::min(next, writeQueue.front().enqueued +
                                      cfg.writeMaxAge);
        }
        requestScheduling(next);
        return;
    }
}

void
MemController::resetStats()
{
    statistics = MemControllerStats{};
    eur.resetStats();
}

void
MemController::setCrashHooks(CrashHooks hooks)
{
    crashHooks = std::move(hooks);
}

unsigned
MemController::drainPmEur()
{
    unsigned drained = 0;
    const Tick now = eq.now();
    for (unsigned b = 0; b < cfg.pm.banks; ++b) {
        const unsigned rank_bank = cfg.dram.banks + b;
        BankState &bank = banks[rank_bank];
        if (bank.openRow < 0) {
            NVCK_ASSERT(!cfg.eurEnabled ||
                            eur.pendingRegisters(b) == 0,
                        "EUR dirty with no open row");
            continue;
        }
        const std::uint64_t before = eur.codeWrites();
        const Tick drain = closeRow(rank_bank, bank);
        drained += static_cast<unsigned>(eur.codeWrites() - before);
        bank.readyAt = std::max(bank.readyAt, now) + drain +
                       cfg.pm.tRP;
        bank.lastUse = bank.readyAt;
    }
    return drained;
}

std::vector<Addr>
MemController::queuedPmWrites() const
{
    std::vector<Addr> addrs;
    for (const Queued &q : writeQueue) {
        if (q.req.isPm)
            addrs.push_back(q.req.addr);
    }
    return addrs;
}

PowerCutReport
MemController::powerCut()
{
    PowerCutReport report;
    report.readsDropped = readQueue.size();
    for (const Queued &q : writeQueue) {
        if (q.req.isPm)
            ++report.pmWritesFlushed;
        else
            ++report.dramWritesDropped;
    }
    readQueue.clear();
    writeQueue.clear();
    report.eurRegistersLost = eur.powerCut();

    const Tick now = eq.now();
    for (BankState &bank : banks) {
        bank.openRow = -1;
        bank.readyAt = now;
        bank.lastUse = now;
    }
    busFreeAt = now;
    draining = false;
    flushing = false;
    return report;
}

} // namespace nvck
