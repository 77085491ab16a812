#include "heap_event_queue.hh"

#include "common/log.hh"

namespace nvck {

void
HeapEventQueue::push(Tick when, std::function<void()> action)
{
    NVCK_ASSERT(when >= currentTick,
                "HeapEventQueue::schedule into the past: event at tick ",
                when, " but now() is ", currentTick);
    heap.push(Entry{when, nextSeq++, std::move(action)});
}

void
HeapEventQueue::rearm(Recurring ev, Tick when)
{
    NVCK_ASSERT(ev.valid() && ev.idx < recurring.size(),
                "rearm of an invalid recurring event");
    RecurringSlot &slot = recurring[ev.idx];
    NVCK_ASSERT(!slot.queued, "rearm of an already-pending event");
    const std::size_t idx = ev.idx;
    push(when, [this, idx] {
        recurring[idx].queued = false;
        recurring[idx].action();
    });
    slot.queued = true;
}

void
HeapEventQueue::executeNext()
{
    // top() is const: copy the entry out before popping.
    Entry entry = heap.top();
    heap.pop();
    currentTick = entry.when;
    statistics.executed.inc();
    entry.action();
}

void
HeapEventQueue::run()
{
    halted = false;
    while (!heap.empty() && !halted)
        executeNext();
}

void
HeapEventQueue::runUntil(Tick limit)
{
    halted = false;
    while (!heap.empty() && !halted && heap.top().when <= limit)
        executeNext();
    if (!halted && currentTick < limit)
        currentTick = limit;
}

} // namespace nvck
