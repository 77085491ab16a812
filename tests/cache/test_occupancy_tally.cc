/**
 * @file
 * The cache directory's dirty-PM and OMV tallies against a full walk of
 * every line, the count Fig 10's sampler took before the tallies: after
 * each operation of seeded random access/clean/discardVolatile
 * sequences on a small hierarchy, and at every occupancy sample of
 * fig17's hashmap proposal point on the whole system.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "cache/hierarchy.hh"
#include "chipkill/schemes.hh"
#include "common/rng.hh"
#include "sim/experiment.hh"

namespace nvck {

/** Reads every line of a directory: the oracle the tallies must match. */
class CacheTestPeer
{
  public:
    struct Walk
    {
        std::size_t dirtyPm = 0; //!< valid && dirty && isPm lines
        std::size_t omv = 0;     //!< valid && omv lines
        std::size_t lines = 0;
    };

    static Walk
    walk(const SetAssocCache &cache)
    {
        Walk w;
        for (const CacheLine &line : cache.store) {
            ++w.lines;
            if (line.valid && line.dirty && line.isPm)
                ++w.dirtyPm;
            if (line.valid && line.omv)
                ++w.omv;
        }
        return w;
    }

    /**
     * Every directory's tallies equal its walk, and both fractions
     * equal the walk's (same integers, same division, so bit-equal).
     * Returns the walked {dirty-PM fraction, OMV fraction}.
     */
    static std::pair<double, double>
    expectTalliesMatchWalk(const CacheHierarchy &h)
    {
        const Walk llc = walk(h.llc);
        EXPECT_EQ(h.llc.dirtyPmLines(), llc.dirtyPm);
        EXPECT_EQ(h.llc.omvLines(), llc.omv);
        std::size_t dirty_pm = llc.dirtyPm, total = llc.lines;
        for (const auto &l1 : h.l1s) {
            const Walk w = walk(*l1);
            EXPECT_EQ(l1->dirtyPmLines(), w.dirtyPm);
            EXPECT_EQ(l1->omvLines(), 0u);
            EXPECT_EQ(w.omv, 0u) << "OMV lines live only in the LLC";
            dirty_pm += w.dirtyPm;
            total += w.lines;
        }
        const double dirty_frac = static_cast<double>(dirty_pm) / total;
        const double omv_frac = static_cast<double>(llc.omv) /
                                static_cast<double>(llc.lines);
        EXPECT_EQ(h.dirtyPmFraction(), dirty_frac);
        EXPECT_EQ(h.omvFraction(), omv_frac);
        return {dirty_frac, omv_frac};
    }
};

namespace {

struct NullSink : MemSink
{
    void writeBlock(Addr, bool, bool) override {}
};

/**
 * A hierarchy small enough that evictions, OMV conversions and their
 * evictions all happen within a few hundred operations: two cores with
 * 16-line L1s over a 64-line LLC, driven over 96 blocks.
 */
void
randomOps(bool omv_enabled, std::uint64_t seed)
{
    NullSink sink;
    CacheConfig cfg;
    cfg.cores = 2;
    cfg.l1Bytes = 16 * blockBytes;
    cfg.l1Ways = 2;
    cfg.llcBytes = 64 * blockBytes;
    cfg.llcWays = 4;
    cfg.omvEnabled = omv_enabled;
    CacheHierarchy caches(cfg, sink);

    Rng rng(seed);
    bool saw_dirty = false, saw_omv = false;
    for (int op = 0; op < 20000; ++op) {
        const unsigned core = static_cast<unsigned>(rng.below(cfg.cores));
        const Addr block = rng.below(96);
        const Addr addr = block * blockBytes + rng.below(blockBytes);
        const bool is_pm = block % 4 != 0; // fixed per block
        const std::uint64_t pick = rng.below(1000);
        if (pick < 3)
            caches.discardVolatile();
        else if (pick < 300)
            caches.clean(core, addr, is_pm);
        else
            caches.access(core, addr, rng.chance(0.5), is_pm);

        const auto [dirty, omv] =
            CacheTestPeer::expectTalliesMatchWalk(caches);
        if (::testing::Test::HasFailure())
            FAIL() << "tallies diverged at op " << op << " (seed " << seed
                   << ", OMV " << (omv_enabled ? "on" : "off") << ")";
        saw_dirty = saw_dirty || dirty > 0.0;
        saw_omv = saw_omv || omv > 0.0;
    }
    // The sequences reach the states the tallies must follow.
    EXPECT_TRUE(saw_dirty);
    EXPECT_EQ(saw_omv, omv_enabled);
}

TEST(OccupancyTally, MatchesWalkUnderRandomOpsWithOmv)
{
    for (std::uint64_t seed = 1; seed <= 4 && !HasFailure(); ++seed)
        randomOps(/*omv_enabled=*/true, seed);
}

TEST(OccupancyTally, MatchesWalkUnderRandomOpsWithoutOmv)
{
    for (std::uint64_t seed = 1; seed <= 4 && !HasFailure(); ++seed)
        randomOps(/*omv_enabled=*/false, seed);
}

TEST(OccupancyTally, DiscardVolatileZeroesTallies)
{
    NullSink sink;
    CacheHierarchy caches(CacheConfig{}, sink);
    for (Addr a = 0; a < 64; ++a) {
        caches.access(0, a * blockBytes, true, true);
        caches.clean(0, a * blockBytes, true);
        caches.access(0, a * blockBytes, true, true);
    }
    caches.access(1, 0x100000, true, true);
    EXPECT_GT(caches.dirtyPmFraction(), 0.0);
    caches.discardVolatile();
    CacheTestPeer::expectTalliesMatchWalk(caches);
    EXPECT_EQ(caches.dirtyPmFraction(), 0.0);
    EXPECT_EQ(caches.omvFraction(), 0.0);
}

/**
 * One pass of runOnce with the walk beside the sampler: every sample's
 * tallies equal the walk, and the walked averages equal the ones
 * runOnce reports. Returns the pass's C factor.
 */
double
checkedPass(const SystemConfig &cfg, const RunControl &rc,
            const RunMetrics &reported)
{
    System sys(cfg);
    sys.start();
    sys.runUntil(rc.warmup);
    sys.resetStats();
    const Tick end = rc.warmup + rc.measure;
    double dirty_sum = 0.0, omv_sum = 0.0;
    unsigned samples = 0;
    for (Tick t = rc.warmup + rc.samplePeriod; t <= end;
         t += rc.samplePeriod) {
        sys.runUntil(t);
        const auto [dirty, omv] =
            CacheTestPeer::expectTalliesMatchWalk(sys.caches());
        dirty_sum += dirty;
        omv_sum += omv;
        ++samples;
    }
    sys.runUntil(end);
    EXPECT_GT(samples, 0u);
    EXPECT_GT(dirty_sum, 0.0);
    EXPECT_EQ(reported.dirtyPmFraction, dirty_sum / samples);
    EXPECT_EQ(reported.omvFraction, omv_sum / samples);
    return sys.memory().cFactor();
}

TEST(OccupancyTally, MatchesWalkAtEverySampleOfFig17Hashmap)
{
    // fig17's window (benchRunControl): 30us warm-up, 100us measured,
    // one occupancy sample every 2.5us.
    RunControl rc;
    rc.warmup = nsToTicks(30000);
    rc.measure = nsToTicks(100000);
    rc.samplePeriod = nsToTicks(2500);

    // runProposal's two passes, each re-run with the walk beside the
    // sampler.
    SchemeTiming scheme = proposalScheme(runtimeRberFor(PmTech::Pcm));
    const SystemConfig char_cfg =
        SystemConfig::make(PmTech::Pcm, scheme, "hashmap", 1);
    const RunMetrics char_m = runOnce(char_cfg, rc);
    const double c_factor = checkedPass(char_cfg, rc, char_m);
    EXPECT_EQ(c_factor, char_m.cFactor);

    applyCFactor(scheme, c_factor);
    const SystemConfig eval_cfg =
        SystemConfig::make(PmTech::Pcm, scheme, "hashmap", 1);
    checkedPass(eval_cfg, rc, runOnce(eval_cfg, rc));
}

} // namespace
} // namespace nvck
