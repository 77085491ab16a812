/**
 * @file
 * Discrete-event simulation kernel: a time-ordered queue of callbacks.
 * All timing components (cores, caches, memory controller) schedule
 * work against one shared EventQueue; ties break in FIFO order so runs
 * are fully deterministic.
 *
 * The queue is a hierarchical calendar queue (timing wheel). A fine
 * ring of one-tick FIFO slots covers the next fineSize ticks; a coarse
 * ring of FIFO buckets, bucketTicks (~1 ns) each, covers ~16.8 us
 * (ringSpan) beyond it — long enough that NVRAM write recovery, EUR
 * drains and the write queue's age bound never leave the rings. Every
 * schedule is an O(1) append with no comparator churn; a coarse bucket
 * is cascaded into fine slots, in FIFO order, once the fine window
 * covers it whole. Events beyond the coarse window wait in a sorted
 * overflow tier (a small binary heap) and are promoted whenever now()
 * advances, before anything at their tick can run or be scheduled.
 * Actions live in pooled event nodes as small-buffer InlineActions, so
 * steady-state scheduling performs zero heap allocations.
 *
 * Determinism argument: seq numbers increase monotonically with
 * schedule order, and both windows only move forward. A tier accepts
 * events at a tick only once its window covers that tick, and every
 * window advance first hands the previous tier's events for the newly
 * covered ticks over — overflow to coarse in (when, seq) heap order,
 * coarse to fine in bucket FIFO order — before any direct schedule
 * there is possible. So for every tick, each bucket and slot receives
 * that tick's events in seq order, and each fine slot (one tick) is a
 * seq-sorted FIFO. The fine window holds exactly the earliest ticks,
 * so the drain order is exactly the (when, seq) order of a plain
 * binary heap. The tests hold the queue to that: a
 * std::priority_queue reference (tests/common/heap_event_queue) runs
 * the same property suite and random scripts event for event.
 */

#ifndef NVCK_COMMON_EVENT_HH
#define NVCK_COMMON_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/page_alloc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace nvck {

/**
 * A non-allocating, small-buffer-optimized callable slot for event
 * actions. Capacity is a hard compile-time bound: captures that do not
 * fit are a build error, not a silent heap fallback — keep hot-path
 * captures to a couple of pointers, or route bulky state through a
 * pooled object (see System's issue slots) and capture the pointer.
 */
class InlineAction
{
  public:
    /** Capture budget: a std::function-sized callback plus a Tick. */
    static constexpr std::size_t capacity = 48;

    InlineAction() = default;
    ~InlineAction() { reset(); }
    InlineAction(const InlineAction &) = delete;
    InlineAction &operator=(const InlineAction &) = delete;

    /** Construct the callable in place (slot must be empty or reset). */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= capacity,
                      "InlineAction capture exceeds the 48-byte budget; "
                      "shrink it or capture a pooled-object pointer");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned captures unsupported");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event actions must be nothrow-movable");
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(fn));
        invokeFn = [](void *p) { (*static_cast<Fn *>(p))(); };
        dtorFn = std::is_trivially_destructible_v<Fn>
                     ? nullptr
                     : +[](void *p) { static_cast<Fn *>(p)->~Fn(); };
    }

    /** Invoke (slot must be armed). */
    void operator()() { invokeFn(buf); }

    bool armed() const { return invokeFn != nullptr; }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (dtorFn)
            dtorFn(buf);
        invokeFn = nullptr;
        dtorFn = nullptr;
    }

  private:
    alignas(std::max_align_t) unsigned char buf[capacity];
    void (*invokeFn)(void *) = nullptr;
    void (*dtorFn)(void *) = nullptr;
};

/** Per-queue observability counters (common/stats primitives). */
struct EventQueueStats
{
    Counter executed;            //!< events dispatched
    Counter overflowPromotions;  //!< events that took the overflow tier
    std::size_t peakPending = 0; //!< max simultaneously queued events
    /**
     * Pool nodes ever allocated (live + free-listed). Flat across a
     * steady-state workload == zero heap allocations per scheduled
     * event; the differential tests assert exactly that.
     */
    std::size_t poolHighWater = 0;
};

/**
 * Process-wide roll-up of every retired EventQueue's counters (sums,
 * and maxima for the peak/high-water gauges), dumped by the sweep
 * driver under --timing. Atomically updated in the queue destructor so
 * per-worker queues merge without ordering sensitivity.
 */
struct EventKernelTotals
{
    std::uint64_t queues = 0;
    std::uint64_t executed = 0;
    std::uint64_t overflowPromotions = 0;
    std::uint64_t maxPeakPending = 0;
    std::uint64_t maxPoolHighWater = 0;
};

/** Snapshot of the process-wide roll-up. */
EventKernelTotals eventKernelTotals();

/** The simulation event queue. */
class EventQueue
{
  public:
    /** Ticks in the fine ring's window (one-tick slots). */
    static constexpr std::uint32_t fineSize = std::uint32_t{1} << 12;
    /** log2 of the ticks one coarse bucket covers. */
    static constexpr unsigned bucketShift = 10;
    /** Ticks per coarse bucket (1024 ps, ~1 ns). */
    static constexpr Tick bucketTicks = Tick{1} << bucketShift;
    /** Coarse buckets (2^14). */
    static constexpr std::uint32_t ringSize = std::uint32_t{1} << 14;
    /**
     * Ticks the fine window plus the coarse ring span (~16.8 us). An
     * event due ringSpan or more ticks after now() waits in the
     * overflow heap; one due less than ringSpan - bucketTicks ticks
     * after never does. Covers the longest PM write recovery (PCM tWR
     * with C-factor inflation, ~1.2 us) and the write queue's 10 us age
     * bound.
     */
    static constexpr Tick ringSpan =
        (Tick{ringSize} << bucketShift) + fineSize;
    // The fine window must cover at least one whole coarse bucket, or
    // a bucket could never be cascaded.
    static_assert(fineSize >= bucketTicks);

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /**
     * Schedule @p action to run at absolute time @p when. Scheduling
     * into the past (when < now()) is a fatal error: a past event
     * would execute "before" already-executed ones and silently break
     * runUntil()'s monotonicity contract, so the queue dies with a
     * diagnostic instead.
     */
    template <typename F>
    void
    schedule(Tick when, F &&action)
    {
        Node &n = acquireNode(when);
        n.action.emplace(std::forward<F>(action));
        insertCalendar(n);
    }

    /** Schedule @p action @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&action)
    {
        schedule(currentTick + delay, std::forward<F>(action));
    }

    /**
     * A pre-armed event whose action outlives each execution: the
     * pooled node is kept (not recycled) when it fires, so rearm()
     * requeues the same capture with no per-occurrence allocation or
     * action re-construction. One instance may be pending at a time;
     * the natural shape is a self-rearming tick loop (Core::step).
     * The captured state must outlive the queue's last run, exactly
     * as for any scheduled [this] closure.
     */
    struct Recurring
    {
        std::uint32_t idx = UINT32_MAX;
        bool valid() const { return idx != UINT32_MAX; }
    };

    /** Create the recurring event (does not schedule it). */
    template <typename F>
    Recurring
    makeRecurring(F &&action)
    {
        Node &n = allocRecurring();
        n.action.emplace(std::forward<F>(action));
        return Recurring{n.self};
    }

    /** Queue @p ev at absolute time @p when (must not be pending). */
    void rearm(Recurring ev, Tick when);

    /** True when no events remain. */
    bool empty() const { return sizeCount == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return sizeCount; }

    /** Execute events in order until the queue drains. */
    void run();

    /**
     * Execute events with timestamps <= @p limit; afterwards now() ==
     * limit (or later if an executed event scheduled past it and was
     * itself <= limit, which cannot happen for monotone schedules).
     */
    void runUntil(Tick limit);

    /**
     * Stop the current run()/runUntil() after the executing event
     * returns, leaving the remaining events queued and now() at the
     * halting event's timestamp. Used by crash injectors that cut
     * power from inside an event (a CrashHooks callback): the machine
     * dies mid-event, but the queue survives so the same system can be
     * driven again as the rebooted machine. A later run()/runUntil()
     * clears the flag and resumes normally.
     */
    void halt() { halted = true; }

    const EventQueueStats &stats() const { return statistics; }

  private:
    /** One pooled event. Nodes never move: chunked stable storage. */
    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = UINT32_MAX; //!< slot FIFO / free list
        std::uint32_t self = 0;          //!< own pool index
        bool recurring = false;
        bool queued = false;
        InlineAction action;
    };

    /** An intrusive FIFO of pooled nodes. */
    struct Bucket
    {
        std::uint32_t head = UINT32_MAX;
        std::uint32_t tail = UINT32_MAX;
    };

    /**
     * A power-of-two ring of FIFO buckets (at most 2^18) with a
     * three-level occupancy bitmap, so the next non-empty bucket is two
     * countr_zero chases away.
     */
    struct Ring
    {
        explicit Ring(std::uint32_t slots);
        void mark(std::uint32_t slot);
        void clear(std::uint32_t slot);
        /** First non-empty slot at ring position >= pos, wrapping
         *  around; nil if the ring is empty. */
        std::uint32_t findFrom(std::uint32_t pos) const;

        std::vector<Bucket, PageAllocator<Bucket>> buckets;
        std::vector<std::uint64_t> bitsL0; //!< one bit per bucket
        std::vector<std::uint64_t> bitsL1; //!< one bit per L0 word
        std::uint64_t bitsL2 = 0;          //!< one bit per L1 word
        std::size_t count = 0;             //!< queued events
    };

    static constexpr std::uint32_t nil = UINT32_MAX;
    static constexpr std::uint32_t fineMask = fineSize - 1;
    static constexpr std::uint32_t ringMask = ringSize - 1;
    static constexpr std::uint32_t chunkShift = 8; //!< 256 nodes/chunk

    Node &node(std::uint32_t idx) const;
    std::uint32_t poolAlloc();
    Node &acquireNode(Tick when);
    Node &allocRecurring();
    void releaseNode(Node &n);
    void checkNotPast(Tick when) const;
    void bumpPending();

    /** Place @p n in the fine ring, the coarse ring or the overflow. */
    void insertCalendar(Node &n);
    /** Append @p n to @p ring's bucket @p slot. */
    void ringPush(Ring &ring, std::uint32_t slot, Node &n);
    /** Pop the head of @p ring's non-empty bucket @p slot. */
    std::uint32_t ringPop(Ring &ring, std::uint32_t slot);
    void overflowPush(std::uint32_t idx);
    std::uint32_t overflowPopMin();
    /**
     * Slide both windows up to now(): cascade every coarse bucket the
     * fine window now covers whole, then promote every overflow event
     * the coarse window now covers. Runs whenever now() advances.
     */
    void advance();
    /** Coarse bucket number of the first non-empty coarse bucket. */
    Tick firstCoarseBucket() const;
    /** Earliest pending tick (requires !empty()). */
    Tick nextWhen() const;
    /** Pop + dispatch the earliest event (advances now()). */
    void executeNext();

    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    std::size_t sizeCount = 0;
    bool halted = false;
    EventQueueStats statistics;

    // Calendar tier. Fine slot t & fineMask holds tick t; coarse bucket
    // b & ringMask holds ticks [b, b + 1) * bucketTicks.
    Ring fine;
    Ring coarse;
    /** First coarse bucket not yet cascaded: ticks below
     *  cascadeNext * bucketTicks live in the fine ring. */
    Tick cascadeNext = fineSize >> bucketShift;
    std::vector<std::uint32_t> overflow; //!< (when,seq) min-heap
    // Node pool: chunked stable storage + an intrusive free list.
    std::vector<std::unique_ptr<Node[]>> chunks;
    std::uint32_t freeHead = nil;
    std::uint32_t allocated = 0;
};

} // namespace nvck

#endif // NVCK_COMMON_EVENT_HH
