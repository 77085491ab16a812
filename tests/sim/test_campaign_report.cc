/**
 * @file
 * The shared campaign report (bench/bench_common.hh): the verdict
 * names every violated counter by its key, and for each of the four
 * campaigns the JSON counters equal the printed table's total row —
 * both are generated from the tally's field table.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/threadpool.hh"
#include "sim/crash.hh"
#include "sim/ras.hh"
#include "sim/spare.hh"
#include "sim/syscrash.hh"

namespace nvck {
namespace {

TEST(CampaignReport, VerdictNamesTheViolatedCounter)
{
    CampaignReport report;
    report.seed = 7;
    report.violations = 2;
    report.counters = {{"failovers", 3, false},
                       {"sdc", 0, true},
                       {"missed_failovers", 2, true}};
    std::ostringstream os;
    EXPECT_EQ(campaignVerdict(os, report), 1);
    const std::string text = os.str();
    EXPECT_NE(text.find("missed_failovers=2"), std::string::npos) << text;
    EXPECT_EQ(text.find("sdc"), std::string::npos) << text;
    EXPECT_EQ(text.find("block(s)"), std::string::npos) << text;
    EXPECT_NE(text.find("--seed 7"), std::string::npos) << text;
}

TEST(CampaignReport, CleanVerdictExitsZero)
{
    CampaignReport report;
    report.counters = {{"sdc", 0, true}};
    std::ostringstream os;
    EXPECT_EQ(campaignVerdict(os, report), 0);
    EXPECT_NE(os.str().find("Oracle held"), std::string::npos);
}

/** Cells of the table line whose first cell is @p label. */
std::vector<std::string>
tableLine(const std::string &table, const std::string &label)
{
    std::istringstream in(table);
    for (std::string line; std::getline(in, line);) {
        std::vector<std::string> cells;
        std::istringstream parts(line);
        for (std::string cell; std::getline(parts, cell, '|');) {
            const auto b = cell.find_first_not_of(' ');
            const auto e = cell.find_last_not_of(' ');
            if (b != std::string::npos)
                cells.push_back(cell.substr(b, e - b + 1));
        }
        if (!cells.empty() && cells[0] == label)
            return cells;
    }
    return {};
}

/** Every `"key": number` line of a campaignJson() emission. */
std::map<std::string, std::uint64_t>
jsonNumbers(const std::string &json)
{
    std::map<std::string, std::uint64_t> out;
    std::istringstream in(json);
    for (std::string line; std::getline(in, line);) {
        const auto open = line.find('"');
        const auto close = line.find("\": ");
        if (open == std::string::npos || close == std::string::npos ||
            !std::isdigit(static_cast<unsigned char>(line[close + 3])))
            continue;
        out[line.substr(open + 1, close - open - 1)] =
            std::stoull(line.substr(close + 3));
    }
    return out;
}

/** Run a campaign on a tiny config; check its JSON against its
 *  table's total row and against every registered field. */
template <typename Tally>
void
expectJsonMatchesTable(const std::string &name,
                       const std::function<CampaignTotals<Tally>(
                           std::ostream &, const SweepOptions &)> &run)
{
    ThreadPool pool(2);
    SweepOptions opts;
    opts.pool = &pool;
    std::ostringstream table;
    const CampaignTotals<Tally> totals = run(table, opts);
    std::ostringstream json;
    campaignJson(json, campaignReport(name, 1, totals));
    const auto numbers = jsonNumbers(json.str());

    const auto total = tableLine(table.str(), "total");
    ASSERT_EQ(total.size(), totals.columns.size() + 1) << table.str();
    for (std::size_t c = 0; c < totals.columns.size(); ++c) {
        const char *key = totals.columns[c]->key;
        ASSERT_EQ(numbers.count(key), 1u) << name << ": " << key;
        EXPECT_EQ(std::to_string(numbers.at(key)), total[c + 1])
            << name << ": " << key;
    }
    const Tally sum = totals.total();
    for (const auto &f : Tally::fields())
        EXPECT_EQ(numbers.at(f.key), sum.*f.member) << name << ": " << f.key;
    EXPECT_EQ(numbers.at("violations"), totals.violations()) << name;
}

TEST(CampaignReport, CrashJsonMatchesTable)
{
    expectJsonMatchesTable<CrashTally>(
        "crash", [](std::ostream &os, const SweepOptions &opts) {
            CrashCampaignConfig cfg;
            cfg.seed = 77;
            cfg.trials = 40;
            cfg.degradedTrials = 8;
            cfg.rankBlocks = 32;
            cfg.chunkTrials = 10;
            return crashCampaign(os, opts, cfg);
        });
}

TEST(CampaignReport, SystemCrashJsonMatchesTable)
{
    expectJsonMatchesTable<SysCrashTally>(
        "syscrash", [](std::ostream &os, const SweepOptions &opts) {
            SysCrashCampaignConfig cfg;
            cfg.seed = 505;
            cfg.trials = 8;
            cfg.chunkTrials = 2;
            return systemCrashCampaign(os, opts, cfg);
        });
}

TEST(CampaignReport, LifecycleJsonMatchesTable)
{
    expectJsonMatchesTable<RasTally>(
        "ras", [](std::ostream &os, const SweepOptions &opts) {
            RasCampaignConfig cfg;
            cfg.seed = 91;
            cfg.trials = 8;
            cfg.chunkTrials = 2;
            cfg.trial.rankBlocks = 256;
            cfg.trial.horizon = nsToTicks(12000);
            return rasCampaign(os, opts, cfg);
        });
}

TEST(CampaignReport, HotSparingJsonMatchesTable)
{
    expectJsonMatchesTable<RasTally>(
        "spare", [](std::ostream &os, const SweepOptions &opts) {
            SpareCampaignConfig cfg;
            cfg.seed = 47;
            cfg.trials = 8;
            cfg.chunkTrials = 2;
            cfg.trial.rankBlocks = 256;
            cfg.trial.horizon = nsToTicks(12000);
            return spareCampaign(os, opts, cfg);
        });
}

} // namespace
} // namespace nvck
