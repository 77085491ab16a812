/**
 * @file
 * Outage-duration study: how long can the machine stay dark before the
 * VLEWs can no longer guarantee data survival? Sweeps outage duration
 * (minutes to years) for ReRAM and 3-bit PCM, injects the corresponding
 * RBER into the bit-accurate rank, scrubs, and reports survival — the
 * paper's "reliable data survival for a week to a year without refresh".
 */

#include <cstdio>
#include <string>
#include <vector>

#include "chipkill/pm_rank.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "reliability/binomial.hh"
#include "reliability/error_model.hh"

#include <iostream>

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    std::printf("outage-recovery study: VLEW survival vs time without "
                "refresh\n\n");

    const std::vector<std::pair<std::string, double>> outages = {
        {"1 hour", secondsPerHour},   {"1 day", secondsPerDay},
        {"1 week", secondsPerWeek},   {"1 month", 30 * secondsPerDay},
        {"1 year", secondsPerYear},
    };

    Table t({"outage", "tech", "RBER", "errors injected",
             "scrub result", "P(VLEW fails) analytical"});
    for (MemTech tech : {MemTech::Reram, MemTech::Pcm3}) {
        for (const auto &[label, seconds] : outages) {
            const double rber = rberAfter(tech, seconds);
            PmRank rank(512);
            Rng rng(static_cast<std::uint64_t>(seconds) + 17);
            rank.initialize(rng);
            const auto injected = rank.injectErrors(rng, rber);
            const auto report = rank.bootScrub();
            const bool survived =
                !report.uncorrectable && rank.isPristine();
            // Analytical per-VLEW failure probability at this RBER:
            // >22 errors in a 2312-bit word.
            const double p_fail = binomialTail(2312, 23, rber);
            t.row()
                .cell(label)
                .cell(memTechName(tech))
                .cell(rber, 2)
                .cell(injected)
                .cell(survived ? "all data recovered"
                               : "UNCORRECTABLE")
                .cell(p_fail, 2);
        }
    }
    t.print(std::cout);

    std::printf("\nTakeaway: at the design RBER of 1e-3 (ReRAM @ 1 "
                "year, 3-bit PCM @ 1 week),\nthe per-VLEW failure "
                "probability stays below the 1e-15-per-block budget;\n"
                "3-bit PCM left dark for a full year (4e-3) exceeds "
                "the design point and is\nexpected to fail in larger "
                "memories — refresh-interval policy matters.\n");
    return 0;
}
