/**
 * @file
 * Reference event queue for the differential tests: one
 * std::priority_queue of {when, seq, std::function} entries, popped in
 * (when, seq) order. It is the textbook kernel the calendar queue
 * (common/event.hh) must match event for event, with an allocation per
 * scheduled closure and O(log n) per push/pop. It offers the subset of
 * EventQueue's API the property suite uses, and keeps the
 * schedule-into-the-past assertion so a script that is wrong for one
 * queue is wrong for both.
 */

#ifndef NVCK_TESTS_COMMON_HEAP_EVENT_QUEUE_HH
#define NVCK_TESTS_COMMON_HEAP_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace nvck {

class HeapEventQueue
{
  public:
    struct Stats
    {
        Counter executed; //!< events dispatched
    };

    /** A reusable event; at most one occurrence may be pending. */
    struct Recurring
    {
        std::size_t idx = SIZE_MAX;
        bool valid() const { return idx != SIZE_MAX; }
    };

    HeapEventQueue() = default;
    // Recurring entries capture this queue's address.
    HeapEventQueue(const HeapEventQueue &) = delete;
    HeapEventQueue &operator=(const HeapEventQueue &) = delete;

    Tick now() const { return currentTick; }

    /** Queue @p action at @p when; dies if when < now(). */
    template <typename F>
    void
    schedule(Tick when, F &&action)
    {
        push(when, std::function<void()>(std::forward<F>(action)));
    }

    template <typename F>
    void
    scheduleAfter(Tick delay, F &&action)
    {
        schedule(currentTick + delay, std::forward<F>(action));
    }

    /** Create the recurring event (does not schedule it). */
    template <typename F>
    Recurring
    makeRecurring(F &&action)
    {
        recurring.push_back(
            {std::function<void()>(std::forward<F>(action)), false});
        return Recurring{recurring.size() - 1};
    }

    /** Queue @p ev at @p when (must not be pending). */
    void rearm(Recurring ev, Tick when);

    bool empty() const { return heap.empty(); }
    std::size_t pending() const { return heap.size(); }

    void run();
    void runUntil(Tick limit);
    void halt() { halted = true; }

    const Stats &stats() const { return statistics; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> action;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    struct RecurringSlot
    {
        std::function<void()> action;
        bool queued;
    };

    void push(Tick when, std::function<void()> action);
    /** Pop and run the earliest entry (advances now()). */
    void executeNext();

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    /** Stable storage: a running action may create another. */
    std::deque<RecurringSlot> recurring;
    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    bool halted = false;
    Stats statistics;
};

} // namespace nvck

#endif // NVCK_TESTS_COMMON_HEAP_EVENT_QUEUE_HH
