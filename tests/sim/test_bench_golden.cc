/**
 * @file
 * Golden-output regression lock for the migrated bench sweeps: each
 * sweep runs in-process at reduced cost (goldenScale()) on explicit
 * 1-worker and 8-worker pools, and both emissions must match the
 * checked-in tests/golden/<case>.txt byte for byte. Any change to a
 * sweep's numbers, formatting, or determinism fails here first.
 *
 * To regenerate after an intentional change:
 *
 *   NVCK_REGEN_GOLDEN=1 ./test_bench_golden
 *
 * which rewrites the golden files from the 1-worker run (still
 * asserting the 8-worker run matches it) and reports the tests as
 * skipped so a stale CI cache cannot silently "pass" a regen run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/crash.hh"
#include "sim/ras.hh"
#include "sim/spare.hh"
#include "sweeps.hh"

namespace nvck {
namespace {

using SweepFn = void (*)(std::ostream &, const SweepOptions &,
                         const BenchScale &);

// The analytic sweeps have no cost to scale; runtime correction is
// cheap enough to lock at full size.
void
fig03Adapter(std::ostream &os, const SweepOptions &opts,
             const BenchScale &)
{
    fig03FlashEcc(os, opts);
}

void
fig04Adapter(std::ostream &os, const SweepOptions &opts,
             const BenchScale &)
{
    fig04StorageVsCodeword(os, opts);
}

void
refreshTradeoffAdapter(std::ostream &os, const SweepOptions &opts,
                       const BenchScale &)
{
    refreshTradeoff(os, opts);
}

void
runtimeCorrectionAdapter(std::ostream &os, const SweepOptions &opts,
                         const BenchScale &)
{
    EXPECT_TRUE(runtimeCorrection(os, opts))
        << "a dead chip's sampled block was not recovered";
}

void
spareCampaignAdapter(std::ostream &os, const SweepOptions &opts,
                     const BenchScale &)
{
    // Tiny replayable hot-sparing campaign: every (tech x plan) cell
    // twice, same shape the unit tests drive. Locks the full table —
    // rebuild/abandon/repair counters included — byte for byte.
    SpareCampaignConfig cfg;
    cfg.seed = 47;
    cfg.trials = 16;
    cfg.chunkTrials = 2;
    cfg.trial.rankBlocks = 256;
    cfg.trial.horizon = nsToTicks(12000);
    spareCampaign(os, opts, cfg);
}

void
rasCampaignAdapter(std::ostream &os, const SweepOptions &opts,
                   const BenchScale &)
{
    // Tiny fault-lifecycle campaign: every (tech x fault plan) cell
    // twice, the shape the RAS unit tests drive.
    RasCampaignConfig cfg;
    cfg.seed = 91;
    cfg.trials = 16;
    cfg.chunkTrials = 2;
    cfg.trial.rankBlocks = 256;
    cfg.trial.horizon = nsToTicks(12000);
    rasCampaign(os, opts, cfg);
}

void
crashCampaignAdapter(std::ostream &os, const SweepOptions &opts,
                     const BenchScale &)
{
    // Tiny bit-level crash campaign, degraded-mode row included.
    CrashCampaignConfig cfg;
    cfg.seed = 77;
    cfg.trials = 120;
    cfg.degradedTrials = 24;
    cfg.rankBlocks = 32;
    cfg.chunkTrials = 10;
    crashCampaign(os, opts, cfg);
}

struct GoldenCase
{
    const char *name;
    SweepFn fn;
};

const GoldenCase kCases[] = {
    {"fig03_flash_ecc", fig03Adapter},
    {"fig04_storage_vs_codeword", fig04Adapter},
    {"fig10_dirty_pm_occupancy", fig10DirtyPmOccupancy},
    {"fig14_access_breakdown", fig14AccessBreakdown},
    {"fig15_cfactor", fig15Cfactor},
    {"fig16_perf_reram", fig16PerfReram},
    {"fig17_perf_pcm", fig17PerfPcm},
    {"fig18_omv_hit_rate", fig18OmvHitRate},
    {"ablation_design", ablationDesign},
    {"boot_scrub", bootScrubCampaign},
    {"wear_leveling", wearLevelingCampaign},
    {"fault_sweep", faultSweep},
    {"refresh_tradeoff", refreshTradeoffAdapter},
    {"runtime_correction", runtimeCorrectionAdapter},
    {"spare_campaign", spareCampaignAdapter},
    {"ras_campaign", rasCampaignAdapter},
    {"crash_campaign", crashCampaignAdapter},
};

std::string
goldenPath(const std::string &name)
{
    return std::string(NVCK_GOLDEN_DIR) + "/" + name + ".txt";
}

std::string
runCase(const GoldenCase &c, unsigned workers)
{
    ThreadPool pool(workers);
    SweepOptions opts;
    opts.pool = &pool;
    std::ostringstream out;
    c.fn(out, opts, goldenScale());
    return out.str();
}

/** Point at the first differing line so failures read like a diff. */
std::string
firstDifference(const std::string &expected, const std::string &actual)
{
    std::istringstream e(expected), a(actual);
    std::string el, al;
    for (std::size_t line = 1;; ++line) {
        const bool eok = static_cast<bool>(std::getline(e, el));
        const bool aok = static_cast<bool>(std::getline(a, al));
        if (!eok && !aok)
            return "outputs identical";
        if (el != al || eok != aok)
            return "first difference at line " + std::to_string(line) +
                   "\n  golden: " + (eok ? el : "<eof>") +
                   "\n  actual: " + (aok ? al : "<eof>");
    }
}

class BenchGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(BenchGolden, TableMatchesGoldenForOneAndEightWorkers)
{
    const GoldenCase &c = GetParam();

    const std::string serial = runCase(c, 1);
    const std::string wide = runCase(c, 8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, wide)
        << "NVCK_JOBS=8 output diverged from NVCK_JOBS=1: "
        << firstDifference(serial, wide);

    const std::string path = goldenPath(c.name);
    if (std::getenv("NVCK_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << serial;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run with NVCK_REGEN_GOLDEN=1 to create it";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), serial)
        << "sweep output changed vs " << path << ": "
        << firstDifference(golden.str(), serial);
}

INSTANTIATE_TEST_SUITE_P(Sweeps, BenchGolden, ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
} // namespace nvck
