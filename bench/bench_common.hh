/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: a standard
 * banner tying each binary to the paper artifact it regenerates, and
 * the common run-controls used by the simulation-driven figures. Every
 * bench gets its RunControl from here — do not hand-roll the windows
 * in individual harnesses, so that figures stay comparable and the
 * golden-output tests can scale every window through one knob.
 */

#ifndef NVCK_BENCH_COMMON_HH
#define NVCK_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

namespace nvck {

/** Print the standard artifact banner. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::cout << "==============================================================\n"
              << artifact << " — " << description << "\n"
              << "Zhang, Sridharan, Jian. \"Exploring and Optimizing "
                 "Chipkill-correct\n"
              << "for Persistent Memory Based on High-density NVRAMs.\" "
                 "MICRO 2018.\n"
              << "==============================================================\n";
}

/**
 * The sweep command line of a bench main (SweepOptions::parse). Under
 * --list the bench prints only the selected point labels: each sweep's
 * run() writes them past std::cout, and std::cout is muted here, so the
 * banner and the tables the main goes on to format from no outcomes
 * are dropped.
 */
inline SweepOptions
benchSweepOptions(int argc, char **argv)
{
    SweepOptions opts = SweepOptions::parse(argc, argv);
    if (opts.list)
        std::cout.setstate(std::ios::badbit);
    return opts;
}

/**
 * The canonical bench windows (nanoseconds of simulated time). The
 * perf/traffic figures (14-18, ablation) warm caches for 30us and
 * measure 100us with 2.5us occupancy samples; the occupancy figures
 * (10) need the longer 150us/150us windows to let dirty-line
 * populations reach their eviction/clean equilibrium. @p scale
 * multiplies every window so reduced-cost runs (golden regression
 * tests, smoke jobs) reuse the exact same shape.
 */
inline RunControl
benchRunControl(double scale = 1.0)
{
    RunControl rc;
    rc.warmup = nsToTicks(30000 * scale);
    rc.measure = nsToTicks(100000 * scale);
    rc.samplePeriod = nsToTicks(2500 * scale);
    return rc;
}

/** Equilibrium-seeking windows for the occupancy figures (Fig 10). */
inline RunControl
benchOccupancyRunControl(double scale = 1.0)
{
    RunControl rc;
    rc.warmup = nsToTicks(150000 * scale);
    rc.measure = nsToTicks(150000 * scale);
    rc.samplePeriod = nsToTicks(5000 * scale);
    return rc;
}

/**
 * Outcome summary shared by the oracle-checked campaigns (crash,
 * system crash, RAS lifecycle, hot sparing): one verdict block and one
 * machine-readable JSON shape for all of them, so CI and humans read
 * the same contract regardless of which campaign tripped.
 */
struct CampaignReport
{
    /** One named tally; `violation` counters fail the oracle. */
    struct Counter
    {
        std::string key;
        std::uint64_t value = 0;
        bool violation = false;
    };

    std::string name;
    /** Effective sweep seed — the replay handle for a failure. */
    std::uint64_t seed = 0;
    std::uint64_t trials = 0;
    std::uint64_t violations = 0;
    /** Additional named tallies, emitted in order. */
    std::vector<Counter> counters;
};

/**
 * The report of a finished campaign: every registered field of its
 * tally's total, in field-table order. `trials` and `violations` are
 * top-level keys, so they are not repeated as counters.
 */
template <typename Tally>
CampaignReport
campaignReport(std::string name, std::uint64_t seed,
               const CampaignTotals<Tally> &totals)
{
    const Tally sum = totals.total();
    CampaignReport report;
    report.name = std::move(name);
    report.seed = seed;
    report.trials = sum.trials;
    report.violations = totals.violations();
    for (const auto &f : Tally::fields()) {
        const std::string key = f.key;
        if (key == "trials" || key == "violations")
            continue;
        report.counters.push_back(
            {key, sum.*f.member, f.rule == TallyRule::Violation});
    }
    return report;
}

/** Print the campaign verdict; returns the process exit code. */
inline int
campaignVerdict(std::ostream &os, const CampaignReport &report)
{
    if (report.violations == 0) {
        os << "\nOracle held: every block read back as the old value,"
              " the new value, or a reported UE.\n";
        return 0;
    }
    os << "\nORACLE VIOLATED:";
    const char *sep = " ";
    for (const auto &c : report.counters) {
        if (c.violation && c.value != 0) {
            os << sep << c.key << "=" << c.value;
            sep = ", ";
        }
    }
    os << " (" << report.violations << " in total; replay with --seed "
       << report.seed << ").\n";
    return 1;
}

/** Emit the report as a single JSON object. */
inline void
campaignJson(std::ostream &os, const CampaignReport &report)
{
    os << "{\n"
       << "  \"campaign\": \"" << report.name << "\",\n"
       << "  \"seed\": " << report.seed << ",\n"
       << "  \"trials\": " << report.trials << ",\n"
       << "  \"violations\": " << report.violations << ",\n"
       << "  \"counters\": {";
    for (std::size_t i = 0; i < report.counters.size(); ++i) {
        os << (i ? "," : "") << "\n    \"" << report.counters[i].key
           << "\": " << report.counters[i].value;
    }
    os << (report.counters.empty() ? "" : "\n  ") << "}\n}\n";
}

/**
 * Close a campaign bench: write the JSON report to $NVCK_CAMPAIGN_JSON
 * when set, print the verdict, and return the exit code.
 */
inline int
finishCampaign(const CampaignReport &report)
{
    if (const char *path = std::getenv("NVCK_CAMPAIGN_JSON")) {
        std::ofstream json(path);
        campaignJson(json, report);
    }
    return campaignVerdict(std::cout, report);
}

} // namespace nvck

#endif // NVCK_BENCH_COMMON_HH
