/**
 * @file
 * Transaction-level memory controller for one hybrid channel with one
 * DRAM rank and one persistent-memory (NVRAM) rank, mirroring the
 * paper's evaluated configuration (Table I): 128-entry read and write
 * queues, FR-FCFS scheduling, and a closed-page-after-50ns-idle row
 * policy. Commands are modelled at transaction granularity (activate +
 * column access fused) which preserves the two quantities the proposal
 * perturbs — bank occupancy and bus bandwidth — while keeping the model
 * fast and deterministic.
 */

#ifndef NVCK_MEM_CONTROLLER_HH
#define NVCK_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/event.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/eur.hh"
#include "mem/request.hh"
#include "mem/timing.hh"

namespace nvck {

/** Controller configuration knobs. */
struct MemControllerConfig
{
    TimingParams dram;
    TimingParams pm;
    unsigned readQueueCap = 128;
    unsigned writeQueueCap = 128;
    /** Start draining writes above this occupancy... */
    unsigned writeDrainHigh = 96;
    /** ...and stop once back below this. */
    unsigned writeDrainLow = 48;
    /** With no reads pending, drain once this many writes queue up. */
    unsigned writeIdleBurst = 16;
    /** Flush writes older than this even without a burst (ADR-style
     *  queues may hold writes, but not forever). */
    Tick writeMaxAge = nsToTicks(10000);

    /**
     * Multiplier on the PM rank's write recovery (the proposal's
     * iso-endurance write-latency inflation, 1 + 33/8 * C).
     */
    double pmWriteScale = 1.0;
    /** Additive PM write latency (20ns encode + internal data read). */
    Tick pmWriteExtra = 0;
    /** Model the in-chip EUR (Section V-D). */
    bool eurEnabled = false;
    /** Extra bank busy time per drained EUR register at row close. */
    Tick eurDrainPerReg = 0;
    /** VLEW data bytes per chip (for the EUR slot mapping). */
    unsigned vlewDataBytes = 256;
    /** Data chips per rank (row bytes split across them). */
    unsigned dataChips = 8;
};

/**
 * Observation points for crash injection. Each hook fires at a spot
 * where a power cut leaves architecturally distinct state behind:
 * after a PM data burst lands but before its code-bit delta drains
 * (onPmWrite), per EUR register retiring at row close in explicit
 * lowest-slot-first order (onEurDrain), and when a row-close begins
 * (onRowClose, before any register retires). Hooks observe only; the
 * injector decides where the cut lands and applies it to the rank
 * model.
 */
struct CrashHooks
{
    /** A PM write's data burst completed; code delta is now EUR-held.
     *  Arguments: block address, bank, VLEW slot within the row.
     *  Fires for demand PM writes only: overhead maintenance writes
     *  (e.g. RAS migration traffic) model bandwidth, not new data. */
    std::function<void(Addr, unsigned, unsigned)> onPmWrite;
    /** One EUR register retired during a drain (bank, slot). */
    std::function<void(unsigned, unsigned)> onEurDrain;
    /** A PM row-close drain is starting (bank). */
    std::function<void(unsigned)> onRowClose;
    /**
     * A PM read issued (block address, patrol flag, overhead flag).
     * The RAS mirror runs the bit-level read path here — demand reads
     * feed the health ledger, patrol reads are checked by the engine's
     * own completion callbacks. Fired after the bank state for the
     * access is fully settled; the callback must not re-enter the
     * controller synchronously (schedule an event instead).
     */
    std::function<void(Addr, bool, bool)> onPmRead;
};

/** What a power cut found in flight (volatile state disposition). */
struct PowerCutReport
{
    /** Queued PM writes inside the ADR persistence domain: flushed to
     *  media by the platform's stored energy, not lost. */
    std::size_t pmWritesFlushed = 0;
    std::size_t dramWritesDropped = 0;
    std::size_t readsDropped = 0;
    /** Pending EUR registers (coalesced code-bit updates) lost. */
    std::uint64_t eurRegistersLost = 0;
};

/** Aggregate controller statistics. */
struct MemControllerStats
{
    Counter dramReads, dramWrites;
    Counter pmReads, pmWrites;
    Counter overheadReads, overheadWrites;
    Counter patrolReads; //!< RAS patrol-scrub reads (also overhead)
    Counter rowHits, rowMisses, rowConflicts;
    Counter coalescedWrites;
    Average readLatency;  //!< enqueue-to-data, ns
    Average writeLatency; //!< enqueue-to-persist, ns
    Average readQueueDepth, writeQueueDepth;
    std::uint64_t busBusyTicks = 0;
};

/**
 * The controller. Ranks: 0 = DRAM, 1 = PM; a request's isPm flag picks
 * the rank. Queues are admission-controlled via canAccept()/enqueue();
 * completion is signalled through each request's callback.
 */
class MemController
{
  public:
    MemController(EventQueue &event_queue,
                  const MemControllerConfig &config);

    /** True if the respective queue has room for another request. */
    bool canAccept(MemOp op) const;

    /**
     * Add a transaction. Returns false (request dropped, argument
     * consumed — retry with a fresh copy) when the queue is full;
     * callers are expected to check canAccept() and apply
     * backpressure. Taken by value so the queued entry is moved, not
     * copied, from the caller's request.
     */
    bool enqueue(MemRequest req);

    /** Pending demand reads (for idle detection). */
    std::size_t readQueueSize() const { return readQueue.size(); }
    std::size_t writeQueueSize() const { return writeQueue.size(); }
    bool idle() const { return readQueue.empty() && writeQueue.empty(); }

    const MemControllerStats &stats() const { return statistics; }
    MemControllerStats &stats() { return statistics; }

    /** EUR C factor measured so far (PM rank). */
    double cFactor() const { return eur.cFactor(); }

    /** Reset statistics (not queue/bank state). */
    void resetStats();

    /** Blocks per row in the PM/DRAM mapping. */
    unsigned blocksPerRow(bool is_pm) const;

    /** Install crash-point observation hooks (see CrashHooks). */
    void setCrashHooks(CrashHooks hooks);

    /**
     * Power failure. Queued PM writes sit inside the ADR persistence
     * domain and are flushed by stored energy; everything else —
     * queued reads, DRAM writes, pending EUR registers, open rows,
     * bus/bank timing state — is volatile and dropped. No completion
     * callbacks fire (the machine is dead). The controller is left
     * idle, ready to be driven again after "reboot".
     */
    PowerCutReport powerCut();

    /** EUR state, for crash injectors sampling pending registers. */
    const EurModel &eurState() const { return eur; }

    /**
     * Synchronously close every open PM row, draining all pending EUR
     * registers through the usual row-close path (CrashHooks fire for
     * each retiring register). The failover half of the RAS engine
     * calls this before migrating a rank to degraded mode so that no
     * coalesced code-bit delta is still in flight when the per-chip
     * VLEW layout is abandoned. Bank ready times absorb the drain and
     * precharge penalties. Returns the number of registers drained.
     * Must not be called from inside a controller callback.
     */
    unsigned drainPmEur();

    /**
     * Block addresses of the PM writes currently queued, in queue
     * order. These are exactly the writes the ADR domain's stored
     * energy would flush at a power cut; crash injectors capture the
     * set at the cut instant to apply their data bursts to the media
     * model (the flushed writes' code-bit deltas still die with the
     * EUR).
     */
    std::vector<Addr> queuedPmWrites() const;

  private:
    friend class MemControllerTestPeer;

    struct Queued
    {
        MemRequest req;
        std::uint64_t row;
        unsigned rankBank; //!< flattened rank*banks + bank
        unsigned vlewSlot;
        Tick enqueued;
    };

    struct BankState
    {
        std::int64_t openRow = -1;
        Tick readyAt = 0;
        Tick lastUse = 0;
    };

    const TimingParams &timing(bool is_pm) const;
    void decode(const MemRequest &req, Queued &out) const;
    /** Arm the one live wake at @p when unless it is already due by
     *  then; a later-armed wake is superseded. */
    void requestScheduling(Tick when);
    /** Wake-event body: runs the loop unless @p gen is superseded. */
    void wake(std::uint64_t gen);
    void scheduleLoop();
    /** Pick the next queue entry per FR-FCFS; -1 if none. */
    int pickFrom(const std::deque<Queued> &queue, Tick &earliest) const;
    void issue(Queued q);
    /** Close @p bank's row, draining the EUR; returns drain penalty. */
    Tick closeRow(unsigned rank_bank, BankState &bank);

    EventQueue &eq;
    MemControllerConfig cfg;
    std::vector<BankState> banks; //!< 2 ranks x banks
    Tick busFreeAt = 0;
    std::deque<Queued> readQueue;
    std::deque<Queued> writeQueue;
    bool draining = false;
    bool flushing = false;
    bool wakeScheduled = false;
    Tick wakeAt = 0;
    /** Generation of the live wake; older queued wakes are stale. */
    std::uint64_t wakeGen = 0;
    EurModel eur;
    CrashHooks crashHooks;
    MemControllerStats statistics;
};

} // namespace nvck

#endif // NVCK_MEM_CONTROLLER_HH
