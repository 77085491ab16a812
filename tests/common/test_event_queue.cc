/**
 * @file
 * Property suite for the calendar event queue. It must be
 * indistinguishable in execution order from the textbook binary heap
 * (tests/common/heap_event_queue): every property runs against both
 * queues, and a randomized differential drain compares them event for
 * event. The pool tests assert the zero-steady-state-allocation claim
 * through the pool high-water counter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/event.hh"
#include "common/heap_event_queue.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace nvck {
namespace {

/** Which queue a property runs on: production or the reference. */
enum class Queue
{
    Calendar, //!< EventQueue
    Heap,     //!< HeapEventQueue
};

/** True when @p Q (a possibly cv/ref-qualified queue type) is the
 *  production calendar queue. */
template <typename Q>
constexpr bool isCalendar =
    std::is_same_v<std::remove_cvref_t<Q>, EventQueue>;

template <typename Q>
using RecurringOf = typename std::remove_cvref_t<Q>::Recurring;

/**
 * Each property is written once as a generic body over the queue type
 * and run on both queues, one test instance per queue.
 */
class EventQueueKernels : public ::testing::TestWithParam<Queue>
{
  protected:
    template <typename Body>
    void
    onQueue(Body &&body)
    {
        if (GetParam() == Queue::Calendar) {
            EventQueue eq;
            body(eq);
        } else {
            HeapEventQueue eq;
            body(eq);
        }
    }
};

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueKernels,
                         ::testing::Values(Queue::Calendar, Queue::Heap),
                         [](const auto &info) {
                             return info.param == Queue::Calendar
                                        ? std::string("calendar")
                                        : std::string("heap");
                         });

TEST_P(EventQueueKernels, FifoTieOrderAtOneTick)
{
    onQueue([&](auto &eq) {
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            eq.schedule(100, [&order, i] { order.push_back(i); });
        eq.run();
        ASSERT_EQ(order.size(), 16u);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    });
}

TEST_P(EventQueueKernels, FifoTiesInterleavedWithOtherTicks)
{
    // Ties at tick 50 are declared between events at other ticks; the
    // tie-break must follow declaration order, not bucket/heap layout.
    onQueue([&](auto &eq) {
        std::vector<int> order;
        eq.schedule(50, [&] { order.push_back(0); });
        eq.schedule(10, [&] { order.push_back(100); });
        eq.schedule(50, [&] { order.push_back(1); });
        eq.schedule(90, [&] { order.push_back(200); });
        eq.schedule(50, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{100, 0, 1, 2, 200}));
    });
}

TEST_P(EventQueueKernels, ScheduleDuringExecuteRunsInOrder)
{
    onQueue([&](auto &eq) {
        std::vector<int> order;
        eq.schedule(10, [&] {
            order.push_back(1);
            // Same-tick insert during execution: runs after already-queued
            // same-tick events (larger seq), before later ticks.
            eq.schedule(10, [&] { order.push_back(3); });
            eq.schedule(20, [&] { order.push_back(4); });
        });
        eq.schedule(10, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
        EXPECT_EQ(eq.stats().executed.value(), 4u);
    });
}

TEST_P(EventQueueKernels, HaltStopsAfterCurrentEventAndResumes)
{
    // The crash-injector contract: halt() inside an event freezes the
    // queue at that event's tick with everything else still pending; a
    // later run picks up exactly where the machine died.
    onQueue([&](auto &eq) {
        std::vector<int> order;
        eq.schedule(10, [&] { order.push_back(1); });
        eq.schedule(20, [&] {
            order.push_back(2);
            eq.halt();
        });
        eq.schedule(30, [&] { order.push_back(3); });
        eq.runUntil(100);
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
        EXPECT_EQ(eq.now(), 20u); // not advanced to the limit
        EXPECT_EQ(eq.pending(), 1u);

        eq.runUntil(100);
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
        EXPECT_EQ(eq.now(), 100u);
        EXPECT_TRUE(eq.empty());
    });
}

TEST_P(EventQueueKernels, RunUntilIdleAdvanceThenScheduleKeepsOrder)
{
    // Regression for the calendar tier's window advance: an idle
    // runUntil() moves now() forward without executing anything. An
    // event E far in the future (overflow tier) followed by a direct
    // schedule F at the same tick after the advance must still run
    // E-before-F (E has the smaller seq).
    onQueue([&](auto &eq) {
        std::vector<int> order;
        const Tick far = EventQueue::ringSpan + 500;
        eq.schedule(far, [&] { order.push_back(1); }); // E: overflow
        eq.runUntil(far - 100); // idle advance; window now covers far
        eq.schedule(far, [&] { order.push_back(2); }); // F: direct bucket
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
    });
}

TEST_P(EventQueueKernels, OverflowPromotionPreservesSeqOrder)
{
    // Events straddling the ring window at the same far tick, declared
    // alternately before (overflow) and after (bucket) the window
    // advance, must drain in declaration order.
    onQueue([&](auto &eq) {
        std::vector<int> order;
        const Tick far = 2 * EventQueue::ringSpan + 7;
        eq.schedule(far, [&] { order.push_back(0); });
        eq.schedule(far + 1, [&] { order.push_back(10); });
        // Advance time by executing an early event so the window slides.
        eq.schedule(EventQueue::ringSpan + 100, [&, far] {
            eq.schedule(far, [&] { order.push_back(1); });
            eq.schedule(far + 1, [&] { order.push_back(11); });
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
        if constexpr (isCalendar<decltype(eq)>) {
            EXPECT_GE(eq.stats().overflowPromotions.value(), 2u);
        }
    });
}

TEST_P(EventQueueKernels, TicksInOneBucketPopInTickOrder)
{
    // A coarse calendar bucket spans bucketTicks ticks and keeps FIFO
    // order; tick order is restored when it cascades into the fine
    // ring. Events declared out of tick order inside one bucket (far
    // beyond the fine window) must drain by tick, ties in declaration
    // order.
    onQueue([&](auto &eq) {
        std::vector<std::pair<Tick, int>> order;
        const Tick base = 100 * EventQueue::bucketTicks;
        const Tick offsets[] = {900, 3, 500, 3, 0, 1023, 500, 1};
        for (int i = 0; i < 8; ++i) {
            eq.schedule(base + offsets[i], [&order, &eq, i] {
                order.emplace_back(eq.now(), i);
            });
        }
        eq.run();
        const std::vector<std::pair<Tick, int>> want = {
            {base + 0, 4},   {base + 1, 7},   {base + 3, 1},
            {base + 3, 3},   {base + 500, 2}, {base + 500, 6},
            {base + 900, 0}, {base + 1023, 5}};
        EXPECT_EQ(order, want);
    });
}

TEST_P(EventQueueKernels, ScheduleAtNowRunsBeforeLaterTickInBucket)
{
    // While an event at tick t runs, its bucket already holds a later
    // tick (t + 5) and a same-tick event. A schedule at now() arrives
    // behind both, yet must run after the same-tick one and before
    // the later tick.
    onQueue([&](auto &eq) {
        std::vector<int> order;
        const Tick t = 100 * EventQueue::bucketTicks + 10;
        eq.schedule(t + 5, [&] { order.push_back(3); });
        eq.schedule(t, [&] {
            order.push_back(0);
            eq.schedule(eq.now(), [&] { order.push_back(2); });
        });
        eq.schedule(t, [&] { order.push_back(1); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    });
}

TEST_P(EventQueueKernels, OverflowPromotionIntoPartlyFilledBucket)
{
    // X (far + 700) waits in the overflow tier until the window slides
    // over its bucket. Y (far + 200), W (far + 400) and a tie Z at X's
    // tick then join the same bucket by direct schedule, behind X.
    // Drain: Y, W, X, Z.
    const Tick far = 2 * EventQueue::ringSpan; // bucket-aligned
    onQueue([&](auto &eq) {
        std::vector<int> order;
        eq.schedule(far + 700, [&] { order.push_back(2); }); // X
        eq.schedule(far - EventQueue::ringSpan / 2, [&] {
            eq.schedule(far + 200, [&] { order.push_back(0); });
            eq.schedule(far + 400, [&] { order.push_back(1); });
            eq.schedule(far + 700, [&] { order.push_back(3); });
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
        if constexpr (isCalendar<decltype(eq)>) {
            // X and the sliding event itself took the overflow tier.
            EXPECT_EQ(eq.stats().overflowPromotions.value(), 2u);
        }
    });
}

TEST_P(EventQueueKernels, RecurringRearmRunsAndReuses)
{
    onQueue([&](auto &eq) {
        int fired = 0;
        RecurringOf<decltype(eq)> ev;
        ev = eq.makeRecurring([&] {
            ++fired;
            if (fired < 5)
                eq.rearm(ev, eq.now() + 10);
        });
        eq.rearm(ev, 10);
        eq.run();
        EXPECT_EQ(fired, 5);
        EXPECT_EQ(eq.now(), 50u);
        EXPECT_EQ(eq.stats().executed.value(), 5u);
    });
}

TEST_P(EventQueueKernels, RecurringInterleavesWithPlainEventsBySeq)
{
    onQueue([&](auto &eq) {
        std::vector<int> order;
        RecurringOf<decltype(eq)> ev =
            eq.makeRecurring([&] { order.push_back(0); });
        eq.schedule(10, [&] { order.push_back(1); });
        eq.rearm(ev, 10); // same tick, later seq: runs after
        eq.schedule(10, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
    });
}

TEST_P(EventQueueKernels, SchedulingIntoThePastDies)
{
    onQueue([&](auto &eq) {
        eq.schedule(100, [] {});
        eq.run();
        ASSERT_EQ(eq.now(), 100u);
        EXPECT_DEATH(eq.schedule(99, [] {}), "schedule into the past");
    });
}

TEST_P(EventQueueKernels, RearmIntoThePastDies)
{
    onQueue([&](auto &eq) {
        RecurringOf<decltype(eq)> ev = eq.makeRecurring([] {});
        eq.schedule(100, [] {});
        eq.run();
        EXPECT_DEATH(eq.rearm(ev, 99), "schedule into the past");
    });
}

TEST(EventQueuePool, ChurnReusesNodesWithoutGrowth)
{
    // Steady-state churn: after warm-up, scheduling must never grow
    // the pool — the high-water mark is the zero-allocation assertion.
    EventQueue eq;
    const int depth = 64;
    std::uint64_t executed = 0;
    for (int i = 0; i < depth; ++i) {
        eq.schedule(static_cast<Tick>(i + 1),
                    [&executed] { ++executed; });
    }
    const std::size_t highWater = eq.stats().poolHighWater;
    EXPECT_GE(highWater, static_cast<std::size_t>(depth));

    // 100k reschedules at the same steady depth.
    EventQueue::Recurring churn;
    std::uint64_t rounds = 0;
    churn = eq.makeRecurring([&] {
        for (int i = 0; i < depth; ++i)
            eq.schedule(eq.now() + static_cast<Tick>(i + 1),
                        [&executed] { ++executed; });
        if (++rounds < 1000)
            eq.rearm(churn, eq.now() + depth + 1);
    });
    eq.rearm(churn, depth + 1);
    eq.run();

    EXPECT_EQ(executed, static_cast<std::uint64_t>(depth) * 1001);
    // +1 allows the recurring node itself, allocated after warm-up.
    EXPECT_LE(eq.stats().poolHighWater, highWater + 1);
    EXPECT_EQ(eq.stats().peakPending,
              static_cast<std::size_t>(depth) + 1);
}

TEST(EventQueuePool, OverflowChurnStaysFlatToo)
{
    // Far-future scheduling exercises the overflow heap + promotion
    // path; nodes must still recycle once the window catches up.
    EventQueue eq;
    std::uint64_t executed = 0;
    EventQueue::Recurring churn;
    std::uint64_t rounds = 0;
    churn = eq.makeRecurring([&] {
        for (int i = 0; i < 8; ++i) {
            eq.schedule(eq.now() + EventQueue::ringSpan +
                            static_cast<Tick>(i),
                        [&executed] { ++executed; });
        }
        if (++rounds < 200)
            eq.rearm(churn, eq.now() + EventQueue::ringSpan / 2);
    });
    eq.rearm(churn, 1);
    eq.run();
    EXPECT_EQ(executed, 8u * 200u);
    EXPECT_GT(eq.stats().overflowPromotions.value(), 0u);
    // 8 in-flight plain events + recurring node + slack for the rounds
    // where two batches overlap; far below one node per schedule.
    EXPECT_LE(eq.stats().poolHighWater, 32u);
}

/**
 * Randomized differential drain: the same schedule script must execute
 * in the same order, at the same ticks, on both kernels. The script
 * mixes same-tick ties, short and beyond-window delays, reentrant
 * scheduling from inside events, and occasional halts.
 */
TEST(EventQueueDifferential, RandomScriptsDrainIdentically)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto runScript = [seed](auto &eq) {
            Rng rng(seed * 977 + 13);
            std::vector<std::pair<Tick, int>> trace;
            int nextId = 0;

            // Each firing schedules 0-2 follow-ons up to depth 3,
            // covering schedule-during-execute on both tiers. The
            // std::function outlives the drain, so the scheduled
            // closures' references stay valid.
            std::function<void(int, int)> fire;
            fire = [&](int id, int depth) {
                trace.emplace_back(eq.now(), id);
                if (depth >= 3)
                    return;
                const std::uint64_t kids = rng.below(3);
                for (std::uint64_t k = 0; k < kids; ++k) {
                    const Tick delay =
                        rng.chance(0.2)
                            ? EventQueue::ringSpan + rng.below(5000)
                            : rng.below(300);
                    const int kid = nextId++;
                    eq.schedule(eq.now() + delay,
                                [&fire, kid, depth] {
                                    fire(kid, depth + 1);
                                });
                }
            };

            for (int i = 0; i < 200; ++i) {
                const Tick when =
                    rng.chance(0.15)
                        ? EventQueue::ringSpan + rng.below(50000)
                        : rng.below(2000);
                const int id = nextId++;
                eq.schedule(when, [&fire, id] { fire(id, 0); });
            }
            // Drain through a couple of runUntil windows (idle advance
            // + resume) before finishing.
            eq.runUntil(1000);
            eq.runUntil(EventQueue::ringSpan + 1000);
            eq.run();
            return std::make_pair(trace, eq.stats().executed.value());
        };

        EventQueue calendarQueue;
        HeapEventQueue heapQueue;
        const auto calendar = runScript(calendarQueue);
        const auto heap = runScript(heapQueue);
        ASSERT_EQ(calendar.second, heap.second) << "seed " << seed;
        ASSERT_EQ(calendar.first.size(), heap.first.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < calendar.first.size(); ++i) {
            ASSERT_EQ(calendar.first[i], heap.first[i])
                << "seed " << seed << " event " << i;
        }
    }
}

TEST(EventQueueDifferential, RandomScriptsAcrossAllTiersDrainIdentically)
{
    // Delays drawn from every calendar tier: the fine window, coarse
    // buckets (many ticks per bucket, declared out of order), the
    // coarse ring's far end and the overflow heap, with reentrant
    // schedules and idle runUntil advances between drains.
    const Tick bucket = EventQueue::bucketTicks;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto runScript = [seed, bucket](auto &eq) {
            Rng rng(seed * 7727 + 5);
            auto delay = [&rng, bucket]() -> Tick {
                switch (rng.below(4)) {
                    case 0:
                        return rng.below(EventQueue::fineSize);
                    case 1:
                        return rng.below(64 * bucket);
                    case 2:
                        return EventQueue::ringSpan - rng.below(4 * bucket);
                    default:
                        return EventQueue::ringSpan +
                               rng.below(64 * bucket);
                }
            };
            std::vector<std::pair<Tick, int>> trace;
            int nextId = 0;
            std::function<void(int, int)> fire;
            fire = [&](int id, int depth) {
                trace.emplace_back(eq.now(), id);
                if (depth >= 3)
                    return;
                for (std::uint64_t k = rng.below(3); k > 0; --k) {
                    const int kid = nextId++;
                    eq.schedule(eq.now() + delay(),
                                [&fire, kid, depth] {
                                    fire(kid, depth + 1);
                                });
                }
            };
            for (int i = 0; i < 300; ++i) {
                const int id = nextId++;
                eq.schedule(delay(), [&fire, id] { fire(id, 0); });
            }
            eq.runUntil(EventQueue::ringSpan / 3);
            eq.runUntil(EventQueue::ringSpan + 17 * bucket + 5);
            eq.run();
            return trace;
        };
        EventQueue calendarQueue;
        HeapEventQueue heapQueue;
        const auto calendar = runScript(calendarQueue);
        const auto heap = runScript(heapQueue);
        ASSERT_EQ(calendar.size(), heap.size()) << "seed " << seed;
        for (std::size_t i = 0; i < calendar.size(); ++i) {
            ASSERT_EQ(calendar[i], heap[i])
                << "seed " << seed << " event " << i;
        }
    }
}

TEST(EventQueueDifferential, LambdaCapturesUpTo48BytesFitInline)
{
    // Compile-time contract: a 48-byte capture is accepted. (A larger
    // one is a static_assert failure — cannot be a runtime test.)
    EventQueue eq;
    struct Fat
    {
        std::uint64_t a[5];
        std::uint32_t b;
        void operator()() const {}
    };
    static_assert(sizeof(Fat) <= InlineAction::capacity);
    eq.schedule(10, Fat{});
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
}

} // namespace
} // namespace nvck
