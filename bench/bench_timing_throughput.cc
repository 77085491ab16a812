/**
 * @file
 * Throughput benchmark for the discrete-event timing kernel
 * (common/event.hh), the pooled two-tier calendar queue.
 *
 * Four scenarios:
 *   - churn_ring:  self-rescheduling event sources whose delays all
 *     land inside the calendar window — the tCAS/tBurst/step-quantum
 *     regime that dominates every timing sweep.
 *   - churn_mixed: same churn with ~1.6% of delays beyond the window,
 *     exercising the overflow tier and its promotions.
 *   - fig16_reram: one fig16-shaped proposal run (ReRAM latencies,
 *     WHISPER workload) end to end.
 *   - fig17_pcm_hashmap: fig17's costliest point end to end — the
 *     two-pass PCM proposal run of the write-only hashmap queries.
 *
 * Execution order is pinned elsewhere: the property suite and the
 * random-script differential tests (tests/common/test_event_queue.cc)
 * hold the calendar queue to a reference binary heap, and the
 * fig16/fig17 goldens hold the end-to-end runs. Every JSON record
 * keeps the "path": "calendar" tag, part of the key the checked-in
 * baselines are compared by.
 *
 * The gated figure of merit ("mbps" in the JSON, which
 * scripts/check_bench.py compares) is Mevents/s for the churn scripts,
 * where events are the work, and simulated microseconds per host
 * second for the end-to-end runs. Events/s would reward a simulator
 * that schedules pointless events, so there it is only reported
 * ("mevents_per_s").
 *
 * Usage: bench_timing_throughput [--points N] [--seed S] [--quick]
 *                                [--json PATH]
 *   --points N  scenarios to run (default all 4).
 *   --seed S    base RNG seed (default 2018).
 *   --quick     shorter timing windows and churn horizons (CI smoke);
 *               the end-to-end runs keep their simulated window, so
 *               their rates compare with a full run's.
 *   --json P    output path (default BENCH_timing_throughput.json).
 * Junk, zero or signed numbers exit 2; an unwritable --json path
 * exits 1.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "chipkill/schemes.hh"
#include "common/event.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "throughput_report.hh"

namespace {

using namespace nvck;

/** Defeats dead-code elimination across timed calls. */
volatile std::uint64_t g_sink = 0;

struct OpResult
{
    double mevents = 0.0; //!< million executed events per second
    double simUs = 0.0;   //!< simulated microseconds per host second
    double seconds = 0.0;
    std::uint64_t iters = 0;
    std::uint64_t events = 0;     //!< executed per op
    std::uint64_t promotions = 0; //!< overflow promotions per op
    std::uint64_t peakPending = 0;
    std::uint64_t poolHighWater = 0;
};

/** One timing record per scenario. */
struct Record
{
    std::string scenario;
    OpResult res;
    bool endToEnd = false;

    /** The gated figure of merit (see the file comment). */
    double
    merit() const
    {
        return endToEnd ? res.simUs : res.mevents;
    }
};

/**
 * Self-rescheduling event sources: each handler draws the next delay
 * and requeues itself until @p horizon. Delays stay inside the
 * calendar window except every ~@p longEvery-th draw, which jumps past
 * ringSpan into the overflow tier (0 disables long jumps). The handler
 * captures {state pointer, source id} — 16 bytes, well inside
 * InlineAction's budget, so the queue allocates nothing per event and
 * the rate is pure queue mechanics.
 */
struct ChurnScript
{
    EventQueue &eq;
    Rng rng;
    Tick horizon;
    unsigned longEvery;

    ChurnScript(EventQueue &queue, std::uint64_t seed, Tick limit,
                unsigned long_every)
        : eq(queue), rng(seed), horizon(limit), longEvery(long_every)
    {}

    void
    fire(unsigned id)
    {
        Tick delta = 1 + rng.below(64);
        if (longEvery && rng.below(longEvery) == 0)
            delta = EventQueue::ringSpan + rng.below(1024);
        const Tick next = eq.now() + delta;
        if (next <= horizon)
            eq.schedule(next, [this, id] { fire(id); });
    }
};

/** One full churn drain; returns the queue's counters. */
OpResult
runChurn(std::uint64_t seed, Tick horizon, unsigned long_every)
{
    constexpr unsigned sources = 1024;
    EventQueue eq;
    ChurnScript script(eq, seed, horizon, long_every);
    for (unsigned id = 0; id < sources; ++id)
        eq.schedule(1 + id % 64, [&script, id] { script.fire(id); });
    eq.run();
    OpResult out;
    out.events = eq.stats().executed.value();
    out.promotions = eq.stats().overflowPromotions.value();
    out.peakPending = eq.stats().peakPending;
    out.poolHighWater = eq.stats().poolHighWater;
    g_sink = g_sink + eq.now();
    return out;
}

/** Repeat @p op until @p min_seconds accumulate; fill in the rates. */
template <typename F>
OpResult
measure(double min_seconds, double ticks_per_op, F &&op)
{
    using clock = std::chrono::steady_clock;
    OpResult out = op(); // warmup: faults tables in, primes caches
    std::uint64_t iters = 0;
    double seconds = 0.0;
    const auto start = clock::now();
    do {
        out = op();
        ++iters;
        seconds =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (seconds < min_seconds);
    out.iters = iters;
    out.seconds = seconds;
    // The scripts are deterministic, so per-op counters are identical
    // across iterations; scale only the rates.
    const double per_op = out.seconds / static_cast<double>(out.iters);
    out.mevents = static_cast<double>(out.events) / per_op / 1e6;
    out.simUs = ticksToNs(static_cast<Tick>(ticks_per_op)) / 1000.0 /
                per_op;
    return out;
}

void
benchChurn(std::vector<Record> &records, const std::string &scenario,
           std::uint64_t seed, Tick horizon, unsigned long_every,
           double min_seconds)
{
    records.push_back({scenario,
                       measure(min_seconds, 0.0,
                               [&] {
                                   return runChurn(seed, horizon,
                                                   long_every);
                               }),
                       false});
}

/** One end-to-end proposal run shape. */
struct EndToEnd
{
    const char *scenario;
    PmTech tech;
    const char *workload;
    /** Both proposal passes (characterize C, then measure with the
     *  inflated tWR), as a fig16/fig17 point runs them. */
    bool twoPass;
};

/** One end-to-end proposal run. */
OpResult
runEndToEnd(const EndToEnd &shape, std::uint64_t seed,
            const RunControl &rc)
{
    SchemeTiming scheme = proposalScheme(runtimeRberFor(shape.tech));
    const auto pass = [&] {
        return runOnce(
            SystemConfig::make(shape.tech, scheme, shape.workload, seed),
            rc);
    };
    const EventKernelTotals before = eventKernelTotals();
    if (shape.twoPass)
        applyCFactor(scheme, pass().cFactor);
    const RunMetrics m = pass();
    const EventKernelTotals after = eventKernelTotals();
    OpResult out;
    out.events = after.executed - before.executed;
    out.promotions = after.overflowPromotions - before.overflowPromotions;
    out.peakPending = after.maxPeakPending;
    out.poolHighWater = after.maxPoolHighWater;
    g_sink = g_sink + m.pmReads;
    return out;
}

void
benchEndToEnd(std::vector<Record> &records, const EndToEnd &shape,
              std::uint64_t seed, double min_seconds, double scale)
{
    const RunControl rc = benchRunControl(scale);
    const double ticks_per_op =
        static_cast<double>((shape.twoPass ? 2 : 1) *
                            (rc.warmup + rc.measure));
    records.push_back({shape.scenario,
                       measure(min_seconds, ticks_per_op,
                               [&] { return runEndToEnd(shape, seed, rc); }),
                       true});
}

void
writeJson(const std::vector<Record> &records, const std::string &path)
{
    std::ostringstream os;
    os << "{\n  \"benchmark\": \"timing_throughput\",\n"
       << "  \"results\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        os << "    {\"scenario\": \"" << r.scenario
           << "\", \"path\": \"calendar\", \"mbps\": " << r.merit()
           << ", \"mevents_per_s\": " << r.res.mevents
           << ", \"sim_us_per_s\": " << r.res.simUs
           << ", \"events\": " << r.res.events
           << ", \"overflow_promotions\": " << r.res.promotions
           << ", \"peak_pending\": " << r.res.peakPending
           << ", \"pool_high_water\": " << r.res.poolHighWater
           << ", \"iters\": " << r.res.iters
           << ", \"seconds\": " << r.res.seconds << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    writeReport(path, os.str());
}

} // namespace

int
main(int argc, char **argv)
{
    double min_seconds = 0.25;
    unsigned points = 4;
    std::uint64_t seed = 2018;
    bool quick = false;
    std::string json_path = "BENCH_timing_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
            min_seconds = 0.04;
        } else if (arg == "--points" && i + 1 < argc) {
            points = static_cast<unsigned>(
                flagPositive(argv[0], "--points", argv[++i], UINT32_MAX));
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = flagPositive(argv[0], "--seed", argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--points N] [--seed S] [--quick]"
                      << " [--json PATH]\n";
            return 2;
        }
    }

    banner("Event kernel", "calendar event-queue throughput");

    std::vector<Record> records;
    if (points >= 1) {
        benchChurn(records, "churn_ring", seed,
                   quick ? 20000 : 100000, 0, min_seconds);
    }
    if (points >= 2) {
        // The horizon must span several ring windows or the long jumps
        // would sail past it and never reach the overflow tier.
        benchChurn(records, "churn_mixed", seed ^ 0x16,
                   (quick ? 2 : 6) * EventQueue::ringSpan, 64,
                   min_seconds);
    }
    // WHISPER ycsb is fig16's left half; hashmap is fig17's costliest
    // point (PCM write queue full). Both run a quarter of the bench
    // windows.
    const EndToEnd shapes[] = {
        {"fig16_reram", PmTech::Reram, "ycsb", false},
        {"fig17_pcm_hashmap", PmTech::Pcm, "hashmap", true},
    };
    for (unsigned i = 0; i < 2 && points >= 3 + i; ++i)
        benchEndToEnd(records, shapes[i], seed, min_seconds, 0.25);

    Table table({"scenario", "Mev/s", "sim us/s", "events/op"});
    for (const Record &r : records) {
        auto &row = table.row().cell(r.scenario).cell(r.res.mevents);
        if (r.endToEnd)
            row.cell(r.res.simUs);
        else
            row.cell("-");
        row.cell(static_cast<double>(r.res.events), 0);
    }
    table.print(std::cout);

    writeJson(records, json_path);
    return 0;
}
