/**
 * @file
 * The sweep driver's determinism contract: whole-System runs, chunked
 * injection campaigns and Monte-Carlo chunks declared as ParallelSweep
 * points give the serial loop's results for 1, 2 and 8 workers, in
 * declaration order, whatever the scheduling; plus the driver's own
 * selection, seeding and CLI parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "reliability/binomial.hh"
#include "reliability/injector.hh"
#include "reliability/sdc_model.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/sweep_on.hh"

namespace nvck {
namespace {

RunControl
quickRun()
{
    RunControl rc;
    rc.warmup = nsToTicks(10000);
    rc.measure = nsToTicks(30000);
    rc.samplePeriod = nsToTicks(5000);
    return rc;
}

std::vector<SystemConfig>
sampleConfigs()
{
    std::vector<SystemConfig> configs;
    for (const char *wl : {"echo", "ycsb", "hashmap", "ctree"}) {
        configs.push_back(SystemConfig::make(PmTech::Reram,
                                             bitErrorOnlyScheme(), wl, 1));
        configs.push_back(SystemConfig::make(PmTech::Pcm,
                                             proposalScheme(2e-4), wl, 7));
    }
    return configs;
}

/** Bit-identical comparison of every RunMetrics field. */
void
expectSameMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.tech, b.tech);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mflops, b.mflops);
    EXPECT_EQ(a.perf, b.perf);
    EXPECT_EQ(a.cFactor, b.cFactor);
    EXPECT_EQ(a.omvHitRate, b.omvHitRate);
    EXPECT_EQ(a.dirtyPmFraction, b.dirtyPmFraction);
    EXPECT_EQ(a.omvFraction, b.omvFraction);
    EXPECT_EQ(a.pmReads, b.pmReads);
    EXPECT_EQ(a.pmWrites, b.pmWrites);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.overheadReads, b.overheadReads);
    EXPECT_EQ(a.overheadWrites, b.overheadWrites);
    EXPECT_EQ(a.vlewFetches, b.vlewFetches);
    EXPECT_EQ(a.oldDataFetches, b.oldDataFetches);
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_EQ(a.avgWriteLatencyNs, b.avgWriteLatencyNs);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
}

TEST(ParallelEngine, MatchesSerialForAnyWorkerCount)
{
    const auto configs = sampleConfigs();
    const RunControl rc = quickRun();

    // Ground truth: the plain serial loop, no driver involved.
    std::vector<RunMetrics> serial;
    for (const auto &cfg : configs)
        serial.push_back(runOnce(cfg, rc));

    for (unsigned workers : {1u, 2u, 8u}) {
        const auto swept = sweepOn<RunMetrics>(
            workers, 0, configs.size(),
            [&](std::size_t i, Rng &) { return runOnce(configs[i], rc); });
        ASSERT_EQ(swept.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " config=" + std::to_string(i));
            expectSameMetrics(serial[i], swept[i]);
        }
    }
}

TEST(ParallelEngine, AbSweepMatchesSerialPair)
{
    // Fig 16/17's point shape: a workload's baseline and proposal
    // runs stay sequential inside one point.
    using AbPair = std::pair<RunMetrics, RunMetrics>;
    const RunControl rc = quickRun();
    const std::vector<std::string> workloads = {"echo", "ycsb"};
    const auto ab = [&](std::size_t i, Rng &) {
        return AbPair{runBaseline(PmTech::Reram, workloads[i], 1, rc),
                      runProposal(PmTech::Reram, workloads[i], 1, rc)};
    };

    std::vector<AbPair> serial;
    Rng unused(0);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        serial.push_back(ab(i, unused));

    for (unsigned workers : {1u, 2u, 8u}) {
        const auto swept =
            sweepOn<AbPair>(workers, 0, workloads.size(), ab);
        ASSERT_EQ(swept.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            expectSameMetrics(serial[i].first, swept[i].first);
            expectSameMetrics(serial[i].second, swept[i].second);
        }
    }
}

void
expectSameReport(const InjectionReport &a, const InjectionReport &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.miscorrected, b.miscorrected);
    ASSERT_EQ(a.errorCount.buckets(), b.errorCount.buckets());
    for (std::size_t k = 0; k < a.errorCount.buckets(); ++k)
        EXPECT_EQ(a.errorCount.bucket(k), b.errorCount.bucket(k));
    EXPECT_EQ(a.errorCount.overflowed(), b.errorCount.overflowed());
    EXPECT_EQ(a.errorCount.samples(), b.errorCount.samples());
}

/**
 * @p trials injection trials as one sweep point per 512-trial chunk
 * (bench_fig07's shape) on @p workers workers, merged in declaration
 * order. @p inject runs one trial range.
 */
template <typename Inject>
InjectionReport
chunkedCampaign(unsigned workers, std::uint64_t trials,
                const Inject &inject)
{
    constexpr std::uint64_t kChunk = 512;
    InjectionReport merged;
    for (const auto &part : sweepOn<InjectionReport>(
             workers, 0, (trials + kChunk - 1) / kChunk,
             [&](std::size_t c, Rng &) {
                 const std::uint64_t lo = c * kChunk;
                 return inject(lo, std::min(lo + kChunk, trials));
             }))
        merged.merge(part);
    return merged;
}

TEST(ParallelEngine, InjectionCountersBitIdenticalAcrossWorkers)
{
    const RsCodec rs(64, 8);
    RsCampaign c;
    c.rber = 1e-3;
    c.seed = 11;
    constexpr std::uint64_t kRsTrials = 5000; // several 512-trial chunks
    const auto rs_range = [&](std::uint64_t lo, std::uint64_t hi) {
        return injectRs(rs, c, lo, hi);
    };
    const auto ref = rs_range(0, kRsTrials);
    EXPECT_EQ(ref.trials, kRsTrials);
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectSameReport(ref, chunkedCampaign(workers, kRsTrials, rs_range));
    }

    const BchCodec vlew(512, 8);
    BchCampaign bc;
    bc.rber = 2e-3;
    bc.seed = 5;
    constexpr std::uint64_t kBchTrials = 1500;
    const auto bch_range = [&](std::uint64_t lo, std::uint64_t hi) {
        return injectBch(vlew, bc, lo, hi);
    };
    const auto bch_ref = bch_range(0, kBchTrials);
    EXPECT_EQ(bch_ref.trials, kBchTrials);
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectSameReport(bch_ref,
                         chunkedCampaign(workers, kBchTrials, bch_range));
    }
}

/**
 * A ParallelSweep whose points sleep for a nondeterministic duration
 * (scheduling noise) before computing a value from their per-point
 * substream. Whatever the interleaving, collection order and values
 * must be byte-identical for 1, 2, and 8 workers.
 */
std::vector<SweepOutcome<std::uint64_t>>
noisySweep(unsigned workers, SweepOptions opts = SweepOptions{})
{
    constexpr int kPoints = 24;
    ThreadPool pool(workers);
    opts.pool = &pool;
    ParallelSweep<std::uint64_t> sweep(99, opts);
    for (int i = 0; i < kPoints; ++i)
        sweep.add("pt-" + std::to_string(i), [](Rng &rng) {
            // Deliberately nondeterministic sleep: results may not
            // depend on who finishes when.
            thread_local std::mt19937 jitter{std::random_device{}()};
            std::this_thread::sleep_for(
                std::chrono::microseconds(jitter() % 1500));
            std::uint64_t v = 0;
            for (int draw = 0; draw < 8; ++draw)
                v = v * 31 + rng.next();
            return v;
        });
    return sweep.run();
}

TEST(ParallelSweep, OrderAndValuesSurviveRandomWorkerSleep)
{
    const auto ref = noisySweep(1);
    ASSERT_EQ(ref.size(), 24u);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].label, "pt-" + std::to_string(i));
        EXPECT_EQ(ref[i].index, i);
    }

    for (unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const auto got = noisySweep(workers);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(got[i].label, ref[i].label) << "point " << i;
            EXPECT_EQ(got[i].index, ref[i].index) << "point " << i;
            EXPECT_EQ(got[i].value, ref[i].value) << "point " << i;
        }
    }
}

TEST(ParallelSweep, FilterAndPointsPreservePerPointSubstreams)
{
    const auto full = noisySweep(2);

    // --filter: the surviving point keeps the stream (and value) it
    // had in the full sweep — substreams key off declaration index.
    SweepOptions filter;
    filter.filter = "pt-7"; // matches pt-7 only (no pt-7x exists)
    const auto filtered = noisySweep(8, filter);
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].label, "pt-7");
    EXPECT_EQ(filtered[0].index, 7u);
    EXPECT_EQ(filtered[0].value, full[7].value);

    // --points: a truncated run reproduces the full run's prefix.
    SweepOptions head;
    head.points = 5;
    const auto prefix = noisySweep(8, head);
    ASSERT_EQ(prefix.size(), 5u);
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        EXPECT_EQ(prefix[i].label, full[i].label);
        EXPECT_EQ(prefix[i].value, full[i].value) << "point " << i;
    }
}

TEST(ParallelSweep, AcceptsPlainClosuresAndReportsTiming)
{
    ThreadPool pool(2);
    SweepOptions opts;
    opts.pool = &pool;
    ParallelSweep<int> sweep(0, opts);
    for (int i = 0; i < 6; ++i)
        sweep.add("analytic-" + std::to_string(i),
                  [i] { return i * i; }); // no Rng parameter
    const auto out = sweep.run();
    ASSERT_EQ(out.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(out[i].value, i * i);
        EXPECT_GE(out[i].millis, 0.0);
    }
}

TEST(SweepOptions, ParseRecognizesEveryFlagForm)
{
    const char *argv[] = {"bench",          "--points", "3",
                          "--filter=hash",  "--timing", "--jobs",
                          "2",              "--seed",   "42"};
    const auto opts =
        SweepOptions::parse(static_cast<int>(std::size(argv)), argv);
    EXPECT_EQ(opts.points, 3u);
    EXPECT_EQ(opts.filter, "hash");
    EXPECT_TRUE(opts.timing);
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_FALSE(opts.list);
    EXPECT_TRUE(opts.seedSet);
    EXPECT_EQ(opts.seed, 42u);

    const char *eq[] = {"bench", "--points=12", "--filter", "omv",
                        "--list", "--seed=2018"};
    const auto alt =
        SweepOptions::parse(static_cast<int>(std::size(eq)), eq);
    EXPECT_EQ(alt.points, 12u);
    EXPECT_EQ(alt.filter, "omv");
    EXPECT_TRUE(alt.list);
    EXPECT_FALSE(alt.timing);
    EXPECT_TRUE(alt.seedSet);
    EXPECT_EQ(alt.seed, 2018u);
}

TEST(SweepOptions, SeedOverrideChangesEveryPointStream)
{
    // The --seed override must reseed the sweep (so a logged CI seed
    // replays verbatim) while an unset seed keeps the bench default.
    auto draw = [](SweepOptions opts) {
        ThreadPool pool(2);
        opts.pool = &pool;
        ParallelSweep<std::uint64_t> sweep(7, opts);
        for (int i = 0; i < 4; ++i)
            sweep.add("p" + std::to_string(i),
                      [](Rng &rng) { return rng.next(); });
        std::vector<std::uint64_t> vals;
        for (const auto &out : sweep.run())
            vals.push_back(out.value);
        return vals;
    };

    SweepOptions plain;
    SweepOptions reseeded;
    reseeded.seed = 99;
    reseeded.seedSet = true;
    SweepOptions same_as_default;
    same_as_default.seed = 7;
    same_as_default.seedSet = true;

    EXPECT_NE(draw(plain), draw(reseeded));
    EXPECT_EQ(draw(plain), draw(same_as_default));
    EXPECT_EQ(draw(reseeded), draw(reseeded));
}

// Each case only parses: no pool is built, so an out-of-range --jobs
// never reaches a ThreadPool.
void
expectParseExit2(const char *flag, const char *value)
{
    const char *argv[] = {"bench", flag, value};
    EXPECT_EXIT(SweepOptions::parse(3, argv),
                ::testing::ExitedWithCode(2),
                std::string(flag) + " expects a positive integer")
        << flag << " '" << value << "'";
}

TEST(SweepOptionsDeathTest, NegativeJobsExitsWithError)
{
    expectParseExit2("--jobs", "-1");
}

TEST(SweepOptionsDeathTest, JobsBeyondThirtyTwoBitsExitsWithError)
{
    expectParseExit2("--jobs", "4294967296");
}

TEST(SweepOptionsDeathTest, JobsAboveWorkerCapExitsWithError)
{
    expectParseExit2("--jobs", "1025");
}

TEST(SweepOptionsDeathTest, NegativePointsExitsWithError)
{
    expectParseExit2("--points", "-1");
}

TEST(SweepOptionsDeathTest, SignedOrSpacedSeedExitsWithError)
{
    expectParseExit2("--seed", " +7");
    expectParseExit2("--seed", "+7");
}

TEST(SweepOptions, JobsAcceptsTheWorkerCap)
{
    const char *argv[] = {"bench", "--jobs", "1024"};
    EXPECT_EQ(SweepOptions::parse(3, argv).jobs, ThreadPool::maxJobs);
}

/** Reads, of @p trials drawn from @p rng, whose Binomial(n, p_sym)
 *  symbol-error count exceeds @p threshold. */
std::uint64_t
fallbackReads(const SdcInputs &in, unsigned threshold,
              std::uint64_t trials, Rng &rng)
{
    const unsigned n = in.dataSymbols + in.checkSymbols;
    const double p_sym = symbolErrorProb(in.rber, in.symbolBits);
    std::uint64_t count = 0;
    for (std::uint64_t t = 0; t < trials; ++t)
        if (rng.binomial(n, p_sym) > threshold)
            ++count;
    return count;
}

constexpr std::uint64_t kMcChunk = 4096;

/**
 * Serial Monte-Carlo reference for vlewFallbackFraction(): chunk c of
 * @p trials reads, kMcChunk reads each, draws substream (seed, c).
 */
double
vlewFallbackFractionMc(const SdcInputs &in, unsigned threshold,
                       std::uint64_t trials, std::uint64_t seed)
{
    const Rng base(seed);
    std::uint64_t rejected = 0;
    for (std::uint64_t lo = 0, c = 0; lo < trials; lo += kMcChunk, ++c) {
        Rng rng = base.substream(c);
        rejected += fallbackReads(in, threshold,
                                  std::min(kMcChunk, trials - lo), rng);
    }
    return static_cast<double>(rejected) / static_cast<double>(trials);
}

TEST(ParallelEngine, SdcMonteCarloDeterministicAndNearAnalytic)
{
    SdcInputs in;
    in.rber = 2e-3; // elevated so the tail is observable in 200k trials
    const double analytic = vlewFallbackFraction(in, 2);
    constexpr std::uint64_t kTrials = 200000;
    const double serial = vlewFallbackFractionMc(in, 2, kTrials, 3);
    EXPECT_NEAR(serial, analytic, 0.25 * analytic);

    // Chunk c as sweep point c: the point's Rng is substream (3, c),
    // so the estimate is the serial one, any worker count.
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::uint64_t rejected = 0;
        for (const auto n : sweepOn<std::uint64_t>(
                 workers, 3, (kTrials + kMcChunk - 1) / kMcChunk,
                 [&](std::size_t c, Rng &rng) {
                     const std::uint64_t lo = c * kMcChunk;
                     return fallbackReads(
                         in, 2, std::min(kMcChunk, kTrials - lo), rng);
                 }))
            rejected += n;
        EXPECT_EQ(static_cast<double>(rejected) / kTrials, serial);
    }
}

} // namespace
} // namespace nvck
