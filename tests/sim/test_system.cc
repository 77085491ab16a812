#include <gtest/gtest.h>

#include "chipkill/schemes.hh"
#include "common/event.hh"
#include "mem/controller.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace nvck {
namespace {

RunControl
quickRun()
{
    RunControl rc;
    rc.warmup = nsToTicks(20000);
    rc.measure = nsToTicks(60000);
    rc.samplePeriod = nsToTicks(5000);
    return rc;
}

TEST(System, BaselineRunProducesProgress)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, bitErrorOnlyScheme(), "echo", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_LT(m.ipc, 16.0); // 4 cores x 4-wide upper bound
    EXPECT_GT(m.pmReads + m.pmWrites, 0u);
    EXPECT_GT(m.dramReads, 0u);
    EXPECT_EQ(m.vlewFetches, 0u);   // baseline has no VLEW traffic
    EXPECT_EQ(m.oldDataFetches, 0u);
}

TEST(System, ProposalGeneratesEccTraffic)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Pcm, proposalScheme(2e-4), "hashmap", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    EXPECT_GT(m.pmWrites, 0u);
    // OMV hit rate should be high: hashmap cleans right after writing.
    EXPECT_GT(m.omvHitRate, 0.8);
    // C factor must be sane.
    EXPECT_GE(m.cFactor, 0.0);
    EXPECT_LE(m.cFactor, 1.0);
}

TEST(System, VlewFetchInjectionScalesWithProbability)
{
    SchemeTiming scheme = proposalScheme(2e-4);
    scheme.vlewFetchProb = 0.05; // exaggerate for a short run
    SystemConfig cfg =
        SystemConfig::make(PmTech::Reram, scheme, "ycsb", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    EXPECT_GT(m.vlewFetches, 0u);
    EXPECT_GT(m.overheadReads, m.vlewFetches * 30);
}

TEST(System, NaiveVlewFetchesOldDataOnEveryPmWrite)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, naiveVlewScheme(2e-4), "hashmap", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    EXPECT_GT(m.oldDataFetches, 0u);
    // Every PM write must fetch old data first.
    EXPECT_NEAR(static_cast<double>(m.oldDataFetches),
                static_cast<double>(m.pmWrites),
                0.25 * static_cast<double>(m.pmWrites) + 8.0);
}

TEST(System, ProposalOldFetchesOnlyOnOmvMiss)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, proposalScheme(7e-5), "btree", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    // OMV mostly hits, so old-data fetches are far rarer than writes.
    EXPECT_LT(static_cast<double>(m.oldDataFetches),
              0.3 * static_cast<double>(m.pmWrites) + 8.0);
}

TEST(System, DirtyPmOccupancyIsSmall)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, proposalScheme(7e-5), "memcached", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    // Fig 10: dirty PM blocks occupy a small fraction of the hierarchy
    // because the workloads clean aggressively.
    EXPECT_LT(m.dirtyPmFraction, 0.25);
}

TEST(System, DeterministicAcrossRuns)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Pcm, proposalScheme(2e-4), "tpcc", 7);
    const RunMetrics a = runOnce(cfg, quickRun());
    const RunMetrics b = runOnce(cfg, quickRun());
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.pmWrites, b.pmWrites);
    EXPECT_EQ(a.vlewFetches, b.vlewFetches);
}

TEST(System, FlopsMetricForSplash)
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, bitErrorOnlyScheme(), "barnes", 1);
    const RunMetrics m = runOnce(cfg, quickRun());
    EXPECT_GT(m.mflops, 0.0);
    EXPECT_DOUBLE_EQ(m.perf, m.mflops);
}

TEST(System, WriteScaleSlowsWriteHeavyWorkload)
{
    SchemeTiming slow = bitErrorOnlyScheme();
    slow.pmWriteScale = 4.0;
    slow.pmWriteExtra = nsToTicks(20);
    SystemConfig fast_cfg = SystemConfig::make(
        PmTech::Pcm, bitErrorOnlyScheme(), "hashmap", 1);
    SystemConfig slow_cfg =
        SystemConfig::make(PmTech::Pcm, slow, "hashmap", 1);
    const RunMetrics fast_m = runOnce(fast_cfg, quickRun());
    const RunMetrics slow_m = runOnce(slow_cfg, quickRun());
    EXPECT_LT(slow_m.ipc, fast_m.ipc);
}

TEST(Experiment, ProposalTwoPassReportsC)
{
    RunControl rc = quickRun();
    const RunMetrics m = runProposal(PmTech::Reram, "echo", 1, rc);
    EXPECT_GT(m.cFactor, 0.0);
    EXPECT_EQ(m.tech, "ReRAM");
    EXPECT_EQ(m.scheme, proposalScheme(7e-5).name);
}

TEST(Experiment, ProposalOverheadIsBounded)
{
    // Smoke version of Fig 16/17: the proposal must land within a
    // plausible band of the baseline on a quick run.
    RunControl rc = quickRun();
    const RunMetrics base = runBaseline(PmTech::Reram, "echo", 1, rc);
    const RunMetrics prop = runProposal(PmTech::Reram, "echo", 1, rc);
    const double rel = prop.perf / base.perf;
    EXPECT_GT(rel, 0.6);
    EXPECT_LT(rel, 1.2);
}

TEST(System, Fig17HashmapEventDiet)
{
    // fig17's costliest point in miniature: PCM proposal, write-only
    // hashmap queries, a full PM write queue. Executed events must stay
    // proportional to the PM requests the controller issues (the old
    // stale-wake storm ran ~1200 events per request), and NVRAM write
    // completions must stay inside the calendar ring instead of taking
    // the overflow heap.
    EXPECT_GT(EventQueue::ringSpan, MemControllerConfig{}.writeMaxAge);
    SchemeTiming scheme = proposalScheme(runtimeRberFor(PmTech::Pcm));
    applyCFactor(scheme, 0.25); // hashmap's measured C under PCM
    System sys(SystemConfig::make(PmTech::Pcm, scheme, "hashmap", 1));
    sys.start();
    sys.runUntil(nsToTicks(10000));

    const auto pmRequests = [&sys] {
        const MemControllerStats &ms = sys.memory().stats();
        return ms.pmReads.value() + ms.pmWrites.value() +
               ms.overheadReads.value() + ms.overheadWrites.value();
    };
    const EventQueueStats &es = sys.events().stats();
    const std::uint64_t events0 = es.executed.value();
    const std::uint64_t promotions0 = es.overflowPromotions.value();
    const std::uint64_t requests0 = pmRequests();
    sys.runUntil(nsToTicks(40000));

    const double events =
        static_cast<double>(es.executed.value() - events0);
    const double requests =
        static_cast<double>(pmRequests() - requests0);
    ASSERT_GT(requests, 200.0);
    EXPECT_LT(events / requests, 20.0);
    EXPECT_LT(static_cast<double>(es.overflowPromotions.value() -
                                  promotions0),
              0.05 * events);
}

} // namespace
} // namespace nvck
