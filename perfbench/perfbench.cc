/**
 * @file
 * Workload runner behind perfbench/run.py. Drives the simulator only
 * through the public entry points the figure and campaign benches call
 * and reads every layer counter from outside, through public stats
 * accessors. One invocation runs one workload:
 *
 *   perfbench --workload pcm-hashmap --seed 1 --seconds 36 --trace 0
 *             [--trace-out spans.json]
 *
 * A pass is a set-up and then the workload's fixed number of timed
 * steps, each a fixed amount of simulated work. The runner repeats the
 * identical pass at least three times, and again while the next pass
 * is due to end within @c --seconds of wall time, and prints one JSON
 * object: set-up times, each step's mean host time over the passes,
 * failed steps, the model fingerprint (exact simulated counts, the
 * same in every pass), per-layer values, and the host-drift probe.
 * When a set-up fails its own check, no more steps run and the object
 * reports every step failed. With --trace 1, every other step of the
 * first pass records spans (name, start, end, parent) around each
 * public call; the spans are written to --trace-out when the run ends.
 */

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "common/event.hh"
#include "common/rng.hh"
#include "sim/configs.hh"
#include "sim/crash.hh"
#include "sim/experiment.hh"
#include "sim/ras.hh"
#include "sim/system.hh"

using namespace nvck;

namespace {

/**
 * Host time of this process: its CPU time, which on a VM excludes the
 * time the hypervisor gave the CPU to other guests (steal). Every
 * benchmark timing uses it; wall time is reported beside it.
 */
double
hostSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
wallSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** In-memory span recorder; a no-op while disabled. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start, end;
        int parent;
    };

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : tracer(t)
        {
            if (!tracer.on)
                return;
            index = static_cast<int>(tracer.spans.size());
            tracer.spans.push_back({name, hostSeconds(), 0.0, tracer.open});
            tracer.open = index;
        }
        ~Scope()
        {
            if (index < 0)
                return;
            tracer.spans[index].end = hostSeconds();
            tracer.open = tracer.spans[index].parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int index = -1;
    };

    bool on = false;
    std::vector<Span> spans;

  private:
    int open = -1;
};

/** Ordered name -> value map printed as a JSON object. */
using Values = std::vector<std::pair<std::string, double>>;

/** One workload: repeatable set-up plus fixed-size timed steps. */
class BenchWorkload
{
  public:
    explicit BenchWorkload(std::uint64_t steps) : steps(steps) {}
    virtual ~BenchWorkload() = default;
    /** Timed steps in one pass. */
    const std::uint64_t steps;
    /** Everything before the first timed step, warm-up step included.
     *  Returns false when the warm-up step failed its own check. */
    virtual bool setup(Tracer &tr) = 0;
    /** Timed step @p i; returns false when its own check fails. */
    virtual bool step(std::uint64_t i, Tracer &tr) = 0;
    /** Untimed work after the last step. */
    virtual void finish() {}
    /** Exact simulated counts of the timed steps. */
    virtual Values fingerprint() const = 0;
    /** Per-layer values of the timed steps (host time @p step_s). */
    virtual Values layers(double step_s) const = 0;
    /** Host seconds of each named phase of the latest set-up. */
    Values phases;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------------
// Timing path: fig17's proposal run under PCM latencies.

/** fig17's windows: 30 us warm-up, 100 us measure, 2.5 us samples. */
RunControl
fig17RunControl()
{
    RunControl rc;
    rc.warmup = nsToTicks(30000);
    rc.measure = nsToTicks(100000);
    rc.samplePeriod = nsToTicks(2500);
    return rc;
}

/**
 * fig17's proposal point, pass 2. The set-up runs pass 1 at fig17's
 * own seed (1) to characterize C, then builds the pass-2 System at a
 * seed derived from the benchmark seed and warms it up for 30 us; a
 * warm-up that retires no instruction fails the set-up. The steps take
 * the System through fig17's 100 us measure window in consecutive
 * slices. The System is freed after its last slice, once its counts
 * are saved, so one System is resident at a time, as in a fig17 run.
 */
class TimingWorkload : public BenchWorkload
{
  public:
    /** One timed step: 2 us of the System's simulated time. */
    static constexpr Tick slice = 2000 * ticksPerNs;
    /** Slices per pass: fig17's 100 us measure window. */
    static constexpr std::uint64_t slices = 50;

    explicit TimingWorkload(std::uint64_t seed)
        : BenchWorkload(slices), seed(seed)
    {}

    bool
    setup(Tracer &tr) override
    {
        sums = Totals{};
        scheme = proposalScheme(runtimeRberFor(PmTech::Pcm));
        const double t0 = hostSeconds();
        {
            Tracer::Scope s(tr, "sim.setup.char_pass/runOnce");
            cFactor = runOnce(
                          SystemConfig::make(PmTech::Pcm, scheme, query, 1),
                          fig17RunControl())
                          .cFactor;
        }
        applyCFactor(scheme, cFactor);
        const double t1 = hostSeconds();
        {
            Tracer::Scope s(tr, "sim.setup.build/System");
            sys = std::make_unique<System>(SystemConfig::make(
                PmTech::Pcm, scheme, query, Rng::substreamSeed(seed, 100)));
            sys->start();
        }
        const double t2 = hostSeconds();
        {
            Tracer::Scope s(tr, "sim.setup.warmup/System::runUntil");
            sys->runUntil(fig17RunControl().warmup);
        }
        phases = {{"char_pass", t1 - t0},
                  {"build", t2 - t1},
                  {"warmup", hostSeconds() - t2}};
        const bool ok = retired(*sys) > 0;
        sys->resetStats();
        // resetStats() leaves the event queue's counters running.
        const EventQueueStats &es = sys->events().stats();
        executed0 = es.executed.value();
        overflow0 = es.overflowPromotions.value();
        return ok;
    }

    bool
    step(std::uint64_t i, Tracer &tr) override
    {
        const std::uint64_t before = retired(*sys);
        {
            Tracer::Scope s(tr, "System::runUntil");
            sys->runUntil(fig17RunControl().warmup + (i + 1) * slice);
        }
        return retired(*sys) > before;
    }

    void
    finish() override
    {
        fold();
    }

    Values
    fingerprint() const override
    {
        const Totals &t = sums;
        return {{"c_factor", cFactor},
                {"ipc", ipc()},
                {"instructions", t.instructions},
                {"row_hit_rate", rowHitRate()},
                {"read_lat_ns", ratio(t.readLatSum, t.readLatSamples)},
                {"write_lat_ns", ratio(t.writeLatSum, t.writeLatSamples)},
                {"pm_reads", t.pmReads},
                {"pm_writes", t.pmWrites},
                {"dram_reads", t.dramReads},
                {"dram_writes", t.dramWrites},
                {"overhead_reads", t.overheadReads},
                {"overhead_writes", t.overheadWrites},
                {"events", t.events},
                {"overflow_promotions", t.overflow}};
    }

    Values
    layers(double step_s) const override
    {
        const Totals &t = sums;
        const double sim_us = simNs() / 1000.0;
        const double requests = t.pmReads + t.pmWrites + t.dramReads +
                                t.dramWrites + t.overheadReads +
                                t.overheadWrites;
        // CacheHierarchy::omvHitRate() reads 1 with no PM writes.
        const double omv = t.omvHits + t.omvMisses > 0
                               ? t.omvHits / (t.omvHits + t.omvMisses)
                               : 1.0;
        return {
            {"event.executed_per_sim_us", ratio(t.events, sim_us)},
            {"event.host_ns_per_event", ratio(step_s * 1e9, t.events)},
            {"event.overflow_frac", ratio(t.overflow, t.events)},
            {"event.peak_pending", t.peakPending},
            {"mem.events_per_request", ratio(t.events, requests)},
            {"mem.requests_per_sim_us", ratio(requests, sim_us)},
            {"mem.row_hit_rate", rowHitRate()},
            {"mem.read_lat_ns", ratio(t.readLatSum, t.readLatSamples)},
            {"mem.write_lat_ns", ratio(t.writeLatSum, t.writeLatSamples)},
            {"cache.llc_miss_rate",
             ratio(t.llcMisses, t.llcHits + t.llcMisses)},
            {"cache.omv_hit_rate", omv},
            {"cpu.ipc", ipc()},
        };
    }

  private:
    /** Counts of the System's timed window. */
    struct Totals
    {
        double instructions = 0, events = 0, overflow = 0, peakPending = 0;
        double pmReads = 0, pmWrites = 0, dramReads = 0, dramWrites = 0,
               overheadReads = 0, overheadWrites = 0;
        double rowHits = 0, rowMisses = 0, rowConflicts = 0;
        double readLatSum = 0, readLatSamples = 0, writeLatSum = 0,
               writeLatSamples = 0;
        double llcHits = 0, llcMisses = 0, omvHits = 0, omvMisses = 0;
    };

    static double
    retired(System &s)
    {
        std::uint64_t n = 0;
        for (unsigned c = 0; c < s.coreCount(); ++c)
            n += s.core(c).instructions();
        return static_cast<double>(n);
    }

    /** Save the System's timed counts and free it. */
    void
    fold()
    {
        const auto v = [](const Counter &c) {
            return static_cast<double>(c.value());
        };
        Totals &t = sums;
        const MemControllerStats &ms = sys->memory().stats();
        const auto &cs = sys->caches().stats();
        const EventQueueStats &es = sys->events().stats();
        t.instructions += retired(*sys);
        t.events += v(es.executed) - static_cast<double>(executed0);
        t.overflow +=
            v(es.overflowPromotions) - static_cast<double>(overflow0);
        t.peakPending =
            std::max(t.peakPending, static_cast<double>(es.peakPending));
        t.pmReads += v(ms.pmReads);
        t.pmWrites += v(ms.pmWrites);
        t.dramReads += v(ms.dramReads);
        t.dramWrites += v(ms.dramWrites);
        t.overheadReads += v(ms.overheadReads);
        t.overheadWrites += v(ms.overheadWrites);
        t.rowHits += v(ms.rowHits);
        t.rowMisses += v(ms.rowMisses);
        t.rowConflicts += v(ms.rowConflicts);
        t.readLatSum += ms.readLatency.mean() *
                        static_cast<double>(ms.readLatency.samples());
        t.readLatSamples += static_cast<double>(ms.readLatency.samples());
        t.writeLatSum += ms.writeLatency.mean() *
                         static_cast<double>(ms.writeLatency.samples());
        t.writeLatSamples += static_cast<double>(ms.writeLatency.samples());
        t.llcHits += v(cs.llcHits);
        t.llcMisses += v(cs.llcMisses);
        t.omvHits += v(cs.omvHits);
        t.omvMisses += v(cs.omvMisses);
        freqGhz = sys->config().core.freqGhz;
        sys.reset();
    }

    /** Simulated ns covered by the timed steps. */
    static double
    simNs()
    {
        return ticksToNs(slices * slice);
    }

    /** Aggregate IPC over the timed windows, as runOnce computes it. */
    double
    ipc() const
    {
        return ratio(sums.instructions, simNs() * freqGhz);
    }

    double
    rowHitRate() const
    {
        const Totals &t = sums;
        return ratio(t.rowHits, t.rowHits + t.rowMisses + t.rowConflicts);
    }

    /** fig17's write-only hashmap queries. */
    static constexpr const char *query = "hashmap";
    std::uint64_t seed;
    SchemeTiming scheme;
    std::unique_ptr<System> sys;
    std::uint64_t executed0 = 0, overflow0 = 0;
    Totals sums;
    double cFactor = 0.0, freqGhz = 0.0;
};

// ------------------------------------------------------------------
// RAS campaign: the ReRAM chip-kill cell, one runRasTrial per step.

/** True when a RAS trial kept the oracle and met its plan's bounds. */
bool
rasTrialOk(const RasTally &t)
{
    return t.violations == 0 && t.sdc == 0 && t.lostDurable == 0 &&
           t.missedFailovers == 0 && t.engageOverruns == 0 &&
           t.falseKills == 0;
}

class RasWorkload : public BenchWorkload
{
  public:
    /** Trials per pass: the fewest with a tail above the median. */
    static constexpr std::uint64_t passTrials = 24;

    explicit RasWorkload(std::uint64_t seed)
        : BenchWorkload(passTrials), trials(Rng::substreamSeed(seed, 1)),
          warm(Rng::substreamSeed(seed, 2))
    {}

    bool
    setup(Tracer &tr) override
    {
        sum = RasTally{};
        events = overflow = 0;
        Rng rng = warm.substream(0);
        const double t0 = hostSeconds();
        RasTally t;
        {
            Tracer::Scope s(tr, "sim.setup.warmup/runRasTrial");
            t = runRasTrial(RasTrialConfig{}, rng);
        }
        phases = {{"warmup", hostSeconds() - t0}};
        return rasTrialOk(t);
    }

    bool
    step(std::uint64_t i, Tracer &tr) override
    {
        Rng rng = trials.substream(i);
        const EventKernelTotals before = eventKernelTotals();
        RasTally t;
        {
            Tracer::Scope s(tr, "runRasTrial");
            t = runRasTrial(RasTrialConfig{}, rng);
        }
        const EventKernelTotals after = eventKernelTotals();
        events += after.executed - before.executed;
        overflow += after.overflowPromotions - before.overflowPromotions;
        // The roll-up's maximum is process-wide and never reset, so it
        // also covers the set-ups' warm-up trials.
        peakPending = after.maxPeakPending;
        sum += t;
        return rasTrialOk(t);
    }

    Values
    fingerprint() const override
    {
        return {{"trials", static_cast<double>(sum.trials)},
                {"events", static_cast<double>(events)},
                {"overflow_promotions", static_cast<double>(overflow)},
                {"demand_reads", static_cast<double>(sum.demandReads)},
                {"demand_writes", static_cast<double>(sum.demandWrites)},
                {"patrol_bursts", static_cast<double>(sum.patrolBursts)},
                {"scrub_bits", static_cast<double>(sum.scrubBits)},
                {"rs_fixes", static_cast<double>(sum.rsFixes)},
                {"vlew_fallbacks", static_cast<double>(sum.vlewFallbacks)},
                {"kills", static_cast<double>(sum.kills)},
                {"failovers", static_cast<double>(sum.failovers)},
                {"migrated_blocks", static_cast<double>(sum.migrated)},
                {"degraded_reads", static_cast<double>(sum.degradedReads)},
                {"degraded_writes", static_cast<double>(sum.degradedWrites)},
                {"detect_accesses_max",
                 static_cast<double>(sum.detectAccessesMax)},
                {"violations", static_cast<double>(sum.violations)}};
    }

    Values
    layers(double step_s) const override
    {
        const double n = static_cast<double>(sum.trials);
        const double ev = static_cast<double>(events);
        const auto per = [n](std::uint64_t v) {
            return ratio(static_cast<double>(v), n);
        };
        return {
            {"event.executed_per_trial", ratio(ev, n)},
            {"event.host_ns_per_event", ratio(step_s * 1e9, ev)},
            {"event.overflow_frac", ratio(static_cast<double>(overflow), ev)},
            {"event.peak_pending", static_cast<double>(peakPending)},
            {"ras.demand_reads", per(sum.demandReads)},
            {"ras.demand_writes", per(sum.demandWrites)},
            {"ras.patrol_bursts", per(sum.patrolBursts)},
            {"ras.scrub_bits", per(sum.scrubBits)},
            {"ras.migrated_blocks", per(sum.migrated)},
            {"ras.degraded_reads", per(sum.degradedReads)},
            {"ras.degraded_writes", per(sum.degradedWrites)},
            {"ras.detect_accesses", static_cast<double>(sum.detectAccessesMax)},
        };
    }

  private:
    Rng trials, warm;
    RasTally sum;
    std::uint64_t events = 0, overflow = 0, peakPending = 0;
};

// ------------------------------------------------------------------
// Bit-level crash recovery: crashCampaign-style chunks, no System.

class CrashWorkload : public BenchWorkload
{
  public:
    /** Chunk shape of CrashCampaignConfig's defaults. */
    static constexpr unsigned chunkTrials = 125;
    static constexpr unsigned rankBlocks = 64;
    /** The four crash points plus the degraded EUR window. */
    static constexpr unsigned kinds = numCrashPoints + 1;
    /** Chunks per pass: five of each kind. */
    static constexpr std::uint64_t passChunks = 5 * kinds;

    explicit CrashWorkload(std::uint64_t seed)
        : BenchWorkload(passChunks), chunks(Rng::substreamSeed(seed, 3)),
          warm(Rng::substreamSeed(seed, 4))
    {}

    bool
    setup(Tracer &tr) override
    {
        // Warm-up: one chunk of every kind, counted nowhere. Its rank
        // and injector builds are the set-up's build phase.
        totals = Totals{};
        bool ok = true;
        Totals warmed;
        {
            Tracer::Scope s(tr, "sim.setup.warmup");
            for (unsigned k = 0; k < kinds; ++k) {
                Rng rng = warm.substream(k);
                ok = runChunk(k, rng, tr, warmed) && ok;
            }
        }
        phases = {{"build", warmed.initS + warmed.injectorS},
                  {"warmup", warmed.trialS}};
        return ok;
    }

    bool
    step(std::uint64_t i, Tracer &tr) override
    {
        Rng rng = chunks.substream(i);
        return runChunk(static_cast<unsigned>(i % kinds), rng, tr, totals);
    }

    Values
    fingerprint() const override
    {
        const CrashTally &t = totals.tally;
        return {{"trials", static_cast<double>(t.trials)},
                {"torn_old", static_cast<double>(t.tornOld)},
                {"torn_new", static_cast<double>(t.tornNew)},
                {"torn_ue", static_cast<double>(t.tornUe)},
                {"chip_kills", static_cast<double>(t.chipKills)},
                {"collateral_ue", static_cast<double>(t.collateralUe)},
                {"violations", static_cast<double>(t.violations)},
                {"recovery_corrected", static_cast<double>(totals.corrected)},
                {"recovery_fell_back_to_vlew",
                 static_cast<double>(totals.fellBack)},
                {"recovery_detected_ue",
                 static_cast<double>(totals.detectedUe)},
                {"recovery_miscorrection_risk",
                 static_cast<double>(totals.miscorrection)}};
    }

    Values
    layers(double) const override
    {
        const CrashTally &t = totals.tally;
        const double n = static_cast<double>(t.trials);
        const auto per = [n](std::uint64_t v) {
            return ratio(static_cast<double>(v), n);
        };
        const double chunks_run = static_cast<double>(steps);
        return {
            {"sim.crash_trial_ms", ratio(totals.trialS * 1e3, n)},
            {"sim.injector_build_ms",
             ratio(totals.injectorS * 1e3, chunks_run)},
            {"chipkill.rank_init_ms", ratio(totals.initS * 1e3, chunks_run)},
            {"chipkill.recovery.corrected", per(totals.corrected)},
            {"chipkill.recovery.fell_back_to_vlew", per(totals.fellBack)},
            {"chipkill.recovery.detected_ue", per(totals.detectedUe)},
            {"chipkill.recovery.miscorrection_risk",
             per(totals.miscorrection)},
            {"crash.torn_old", per(t.tornOld)},
            {"crash.torn_new", per(t.tornNew)},
            {"crash.torn_ue", per(t.tornUe)},
            {"crash.collateral_ue", per(t.collateralUe)},
        };
    }

  private:
    struct Totals
    {
        CrashTally tally;
        /** Recovery outcomes, summed over the chunks' ranks. */
        std::uint64_t corrected = 0, fellBack = 0, detectedUe = 0,
                      miscorrection = 0;
        double initS = 0.0, injectorS = 0.0, trialS = 0.0;
    };

    template <class Rank, class Injector, class Trial>
    static bool
    chunk(Rng &rng, Tracer &tr, Totals &into, Trial &&trial)
    {
        const double t0 = hostSeconds();
        Rank rank(rankBlocks);
        {
            Tracer::Scope s(tr, "Rank::initialize");
            rank.initialize(rng);
        }
        const double t1 = hostSeconds();
        std::unique_ptr<Injector> inj;
        {
            Tracer::Scope s(tr, "Injector::build");
            inj = std::make_unique<Injector>(rank);
        }
        const double t2 = hostSeconds();
        CrashTally sum;
        for (unsigned t = 0; t < chunkTrials; ++t) {
            Tracer::Scope s(tr, "Injector::runTrial");
            sum += trial(*inj, rng);
        }
        const double t3 = hostSeconds();
        const auto &rc = rank.recoveryCounters();
        into.corrected += rc.corrected.value();
        into.fellBack += rc.fellBackToVlew.value();
        into.detectedUe += rc.detectedUe.value();
        into.miscorrection += rc.miscorrectionRisk.value();
        into.initS += t1 - t0;
        into.injectorS += t2 - t1;
        into.trialS += t3 - t2;
        into.tally += sum;
        return sum.violations == 0 && sum.trials == chunkTrials;
    }

    static bool
    runChunk(unsigned kind, Rng &rng, Tracer &tr, Totals &into)
    {
        if (kind == numCrashPoints) {
            return chunk<DegradedRank, DegradedCrashInjector>(
                rng, tr, into,
                [](DegradedCrashInjector &inj, Rng &r) {
                    return inj.runTrial(r);
                });
        }
        const auto point = static_cast<CrashPoint>(kind);
        return chunk<PmRank, CrashInjector>(
            rng, tr, into, [point](CrashInjector &inj, Rng &r) {
                return inj.runTrial(point, r, CrashTrialOptions{});
            });
    }

    Rng chunks, warm;
    Totals totals;
};

// ------------------------------------------------------------------

/**
 * Host-drift probe: a fixed xorshift loop plus a pointer chase around
 * a 512 KiB random cycle, with no simulator code. The chase feels the
 * cache contention that slows the simulator and the ALU loop does not.
 * The probe explains drift; it never rescales a result.
 * Returns {cpu ms, wall ms}.
 */
std::array<double, 2>
calibOnceMs()
{
    static const std::vector<std::uint32_t> next = [] {
        constexpr std::uint32_t n = 1u << 17;
        std::vector<std::uint32_t> order(n), link(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[i] = i;
        Rng rng(0x5eed);
        for (std::uint32_t i = n - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        for (std::uint32_t i = 0; i < n; ++i)
            link[order[i]] = order[(i + 1) % n];
        return link;
    }();
    // Volatile seed and sink pin the loops between the clock reads.
    volatile std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    volatile std::uint64_t sink = 0;
    const double c0 = hostSeconds(), w0 = wallSeconds();
    std::uint64_t x = seed;
    for (unsigned i = 0; i < 10'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::uint32_t p = static_cast<std::uint32_t>(x) & (next.size() - 1);
    for (unsigned i = 0; i < 4'000'000; ++i) {
        p = next[p];
        x += (p & 1) ? p : x >> 3;
    }
    sink = x;
    (void)sink;
    return {(hostSeconds() - c0) * 1e3, (wallSeconds() - w0) * 1e3};
}

/**
 * Peak resident set of this process in KiB: VmHWM from /proc, which
 * starts afresh at exec. (getrusage's ru_maxrss does not: it keeps
 * the resident set of the process that forked the runner.)
 */
long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    long kb = 0;
    while (in >> key) {
        if (key == "VmHWM:") {
            in >> kb;
            break;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return kb;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Keep this (single-threaded) process on CPU @p cpu from now on. */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Median CPU and wall time of three probe loops. */
std::array<double, 2>
calibMs()
{
    std::vector<double> cpu, wall;
    for (int i = 0; i < 3; ++i) {
        const auto [c, w] = calibOnceMs();
        cpu.push_back(c);
        wall.push_back(w);
    }
    return {median(cpu), median(wall)};
}

void
printValues(const char *key, const Values &vals)
{
    std::printf("\"%s\": {", key);
    for (std::size_t i = 0; i < vals.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "", vals[i].first.c_str(),
                    vals[i].second);
    std::printf("}");
}

void
printList(const char *key, const std::vector<double> &v)
{
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s%.9g", i ? ", " : "", v[i]);
    std::printf("]");
}

void
writeSpans(const std::string &path, const Tracer &tr, double origin)
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const auto &s = tr.spans[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s{\"id\": %zu, \"name\": \"%s\", \"start_us\": "
                      "%.3f, \"end_us\": %.3f, \"parent\": %d}",
                      i ? ",\n" : "", i, s.name, (s.start - origin) * 1e6,
                      (s.end - origin) * 1e6, s.parent);
        out << line;
    }
    out << "\n]\n";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{pcm-hashmap|ras-chipkill|crash-recovery} "
                 "--seed N --seconds N --trace 0|1 "
                 "[--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const char *s, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || s[0] == '-')
        usage(what);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    // Fewest passes per run, each a set-up and the timed steps.
    constexpr unsigned minPasses = 3;
    std::string name, trace_out;
    std::uint64_t seed = 0, seconds = 0;
    bool trace = false, have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            seed = parseCount(val, "bad --seed"), have_seed = true;
        else if (flag == "--seconds")
            seconds = parseCount(val, "bad --seconds");
        else if (flag == "--trace")
            trace = parseCount(val, "bad --trace") != 0;
        else if (flag == "--trace-out")
            trace_out = val;
        else
            usage("unknown flag");
    }
    if (argc % 2 == 0 || !have_seed || seconds == 0)
        usage("missing argument");

    std::unique_ptr<BenchWorkload> w;
    if (name == "pcm-hashmap")
        w = std::make_unique<TimingWorkload>(seed);
    else if (name == "ras-chipkill")
        w = std::make_unique<RasWorkload>(seed);
    else if (name == "crash-recovery")
        w = std::make_unique<CrashWorkload>(seed);
    else
        usage("unknown workload");
    const std::uint64_t steps = w->steps;

    const auto calib_before = calibMs();
    Tracer tr;
    const double origin = hostSeconds();

    // Identical passes, each a set-up and then the same timed steps: at
    // least three, and more while the next pass, if it takes as long as
    // the last one, ends within --seconds of wall time. On a shared
    // host, other guests slow one CPU at a time, in CPU time too, for a
    // fraction of a second to many seconds, and all CPUs together for
    // minutes. The passes take turns on the CPUs the process may use,
    // and each step's time is its mean over the passes, so a run
    // averages the host's states over its length; the fastest moments,
    // which a minimum would pick, come and go with the other guests'
    // load. setup_s is the median set-up. A step fails if it fails in
    // any pass, and every pass must give the same fingerprint. A traced
    // run records spans in the first pass only, on even steps, so its
    // odd steps give the untraced comparison.
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> pass_cpu;
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> phase_s;
    std::vector<std::vector<double>> pass_ms;
    std::vector<double> pass_wall_s;
    std::vector<bool> step_failed(steps, false);
    Values fingerprint;
    bool setup_ok = true, passes_agree = true;
    const double run0 = wallSeconds();
    double last_pass_s = 0.0;
    for (unsigned p = 0;
         setup_ok && (p < minPasses ||
                      wallSeconds() - run0 + last_pass_s <= seconds);
         ++p) {
        const double pass0 = wallSeconds();
        if (!cpus.empty()) {
            pinTo(cpus[p % cpus.size()]);
            pass_cpu.push_back(cpus[p % cpus.size()]);
        }
        tr.on = trace && p == 0;
        const double s0 = hostSeconds();
        {
            Tracer::Scope span(tr, "setup");
            setup_ok = w->setup(tr);
        }
        setup_s.push_back(hostSeconds() - s0);
        for (const auto &[phase, v] : w->phases)
            phase_s[phase].push_back(v);
        if (!setup_ok)
            break;

        std::vector<double> ms;
        ms.reserve(steps);
        const double wall0 = wallSeconds();
        for (std::uint64_t i = 0; i < steps; ++i) {
            tr.on = trace && p == 0 && i % 2 == 0;
            const double t0 = hostSeconds();
            bool ok;
            {
                Tracer::Scope span(tr, "step");
                ok = w->step(i, tr);
            }
            ms.push_back((hostSeconds() - t0) * 1e3);
            if (!ok)
                step_failed[i] = true;
        }
        w->finish();
        pass_wall_s.push_back(wallSeconds() - wall0);
        last_pass_s = wallSeconds() - pass0;
        pass_ms.push_back(std::move(ms));
        const Values fp = w->fingerprint();
        passes_agree = passes_agree && (p == 0 || fp == fingerprint);
        fingerprint = fp;
    }
    tr.on = false;
    const auto calib_after = calibMs();

    // None of the steps run after a failed set-up, and all count as
    // failed.
    std::uint64_t failed = steps;
    std::vector<double> pass_s, step_ms;
    if (setup_ok) {
        failed = std::count(step_failed.begin(), step_failed.end(), true);
        for (const auto &ms : pass_ms) {
            double sum = 0.0;
            for (const double v : ms)
                sum += v / 1e3;
            pass_s.push_back(sum);
        }
        step_ms.assign(steps, 0.0);
        for (const auto &ms : pass_ms)
            for (std::uint64_t i = 0; i < steps; ++i)
                step_ms[i] += ms[i] / static_cast<double>(pass_ms.size());
    } else {
        std::fprintf(stderr, "perfbench: %s set-up failed its check\n",
                     name.c_str());
    }
    double step_s = 0.0;
    for (const double v : step_ms)
        step_s += v / 1e3;

    Values phases;
    for (const auto &[phase, v] : phase_s)
        phases.emplace_back(phase, median(v));
    if (trace && !trace_out.empty())
        writeSpans(trace_out, tr, origin);

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"steps\": %llu, "
                "\"setup_ok\": %s, \"passes_agree\": %s, \"failed\": %llu, "
                "\"peak_rss_kb\": %ld, \"spans\": %zu, ",
                name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(steps),
                setup_ok ? "true" : "false", passes_agree ? "true" : "false",
                static_cast<unsigned long long>(failed), peakRssKb(),
                tr.spans.size());
    printList("calib_ms", {calib_before[0], calib_after[0]});
    std::printf(", ");
    printList("calib_wall_ms", {calib_before[1], calib_after[1]});
    std::printf(", ");
    printList("setup_s", setup_s);
    std::printf(", ");
    printList("pass_s", pass_s);
    std::printf(", ");
    printList("pass_wall_s", pass_wall_s);
    std::printf(", ");
    printList("pass_cpu", pass_cpu);
    std::printf(", ");
    printList("step_ms", step_ms);
    std::printf(", ");
    printList("traced_step_ms",
              trace && setup_ok ? pass_ms.front() : std::vector<double>{});
    std::printf(", ");
    printValues("setup_phases_s", phases);
    std::printf(", ");
    printValues("fingerprint", fingerprint);
    std::printf(", ");
    printValues("layers", w->layers(step_s));
    std::printf("}\n");
    return failed || !passes_agree ? 1 : 0;
}
