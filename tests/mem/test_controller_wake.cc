/**
 * @file
 * Wake-schedule completeness for the memory controller. The controller
 * keeps one live wake and arms it at the earliest tick its scheduling
 * decision could change. If that schedule is complete, running the
 * scheduling loop at any other tick finds nothing to issue, so extra
 * ("spurious") loop runs cannot change the issue trace. A missed
 * deadline breaks this: a spurious run lands inside the gap and issues
 * early.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/event.hh"
#include "common/rng.hh"
#include "mem/controller.hh"

namespace nvck {

/** Reaches the controller's private scheduling loop. */
class MemControllerTestPeer
{
  public:
    static void runLoop(MemController &ctrl) { ctrl.scheduleLoop(); }
};

namespace {

/** One issued PM request: (address, is-read, issue tick). */
using Issue = std::tuple<Addr, bool, Tick>;
/** One completion: (address, finish tick). */
using Finish = std::pair<Addr, Tick>;

struct Trace
{
    std::vector<Issue> issues;
    std::vector<Finish> finishes;
    /** Ticks at which the controller's decision may change. */
    std::set<Tick> decisionTicks;
};

MemControllerConfig
pcmConfig()
{
    MemControllerConfig cfg;
    cfg.dram = ddr4_2400();
    cfg.pm = pcmTiming();
    cfg.pmWriteScale = 2.0; // the proposal's inflated PCM tWR
    cfg.pmWriteExtra = nsToTicks(20);
    cfg.eurEnabled = true; // onPmWrite reports each write's issue
    cfg.eurDrainPerReg = nsToTicks(5);
    return cfg;
}

/**
 * A mixed PM run: steady reads over every bank with sparse writes, so
 * writes are mostly held until the age bound while reads wait on busy
 * banks. Requests arrive open-loop at seeded random ticks and retry
 * after 1 ns when their queue is full. When @p spurious is non-empty,
 * the scheduling loop also runs at each of those ticks.
 */
Trace
runMixed(std::uint64_t seed, const std::vector<Tick> &spurious)
{
    EventQueue eq;
    MemController ctrl(eq, pcmConfig());
    Trace trace;
    CrashHooks hooks;
    hooks.onPmRead = [&](Addr addr, bool, bool) {
        trace.issues.emplace_back(addr, true, eq.now());
    };
    hooks.onPmWrite = [&](Addr addr, unsigned, unsigned) {
        trace.issues.emplace_back(addr, false, eq.now());
    };
    ctrl.setCrashHooks(std::move(hooks));

    for (Tick t : spurious)
        eq.schedule(t, [&ctrl] { MemControllerTestPeer::runLoop(ctrl); });

    const Tick ageBound = MemControllerConfig{}.writeMaxAge;
    std::function<void(Addr, MemOp)> submit = [&](Addr addr, MemOp op) {
        MemRequest req;
        req.addr = addr;
        req.op = op;
        req.isPm = true;
        req.onComplete = [&trace, addr](Tick t) {
            trace.finishes.emplace_back(addr, t);
            trace.decisionTicks.insert(t);
        };
        if (!ctrl.enqueue(std::move(req))) {
            eq.schedule(eq.now() + nsToTicks(1),
                        [&submit, addr, op] { submit(addr, op); });
            return;
        }
        trace.decisionTicks.insert(eq.now());
        if (op == MemOp::Write)
            trace.decisionTicks.insert(eq.now() + ageBound);
    };

    Rng rng(seed);
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        t += nsToTicks(20) + rng.below(nsToTicks(60));
        const bool write = rng.chance(0.06);
        // 1 MiB of blocks: 2 KiB chunks over all 16 banks, 8 rows each.
        const Addr addr = rng.below(1u << 14) * blockBytes;
        eq.schedule(t, [&submit, addr, write] {
            submit(addr, write ? MemOp::Write : MemOp::Read);
        });
    }
    eq.run();
    EXPECT_TRUE(ctrl.idle());
    for (const Issue &is : trace.issues)
        trace.decisionTicks.insert(std::get<2>(is));
    return trace;
}

TEST(ControllerWake, SpuriousLoopRunsLeaveTheIssueTraceUnchanged)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const Trace ref = runMixed(seed, {});
        ASSERT_GT(ref.issues.size(), 2500u);
        const Tick end = ref.finishes.back().second;

        // Spurious runs at seeded random ticks, skipping the ticks at
        // which the reference run enqueued, issued, completed or hit a
        // write's age bound: same-tick event order there is arbitrary,
        // and the property is about the gaps between decisions.
        Rng rng(seed * 7919);
        std::vector<Tick> spurious;
        while (spurious.size() < 40000) {
            const Tick tick = rng.below(end);
            if (!ref.decisionTicks.count(tick))
                spurious.push_back(tick);
        }
        const Trace perturbed = runMixed(seed, spurious);
        ASSERT_EQ(perturbed.issues.size(), ref.issues.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < ref.issues.size(); ++i) {
            ASSERT_EQ(perturbed.issues[i], ref.issues[i])
                << "seed " << seed << " issue " << i;
        }
        EXPECT_EQ(perturbed.finishes, ref.finishes) << "seed " << seed;
    }
}

} // namespace
} // namespace nvck
