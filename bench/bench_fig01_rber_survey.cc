/**
 * @file
 * Figure 1: raw bit error rates of memory and storage technologies as
 * a function of time since last write/refresh. Prints the modelled
 * RBER curves with the paper's anchor points marked.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "reliability/error_model.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    banner("Figure 1", "RBERs of memory and storage vs retention time");

    const double times[] = {1.0,
                            60.0,
                            secondsPerHour,
                            secondsPerDay,
                            secondsPerWeek,
                            30 * secondsPerDay,
                            secondsPerYear};
    const char *labels[] = {"1 s",    "1 min",  "1 hour", "1 day",
                            "1 week", "30 days", "1 year"};

    std::vector<std::string> headers = {"technology"};
    for (const char *l : labels)
        headers.emplace_back(l);
    Table t(headers);
    for (MemTech tech : allMemTechs()) {
        t.row().cell(memTechName(tech));
        for (double seconds : times)
            t.cell(rberAfter(tech, seconds), 2);
    }
    t.print(std::cout);

    std::cout << "\nPaper anchor points (Section II-B):\n"
              << "  persistent-memory RBER target 1e-3 = ReRAM @ 1 year"
                 " = 3-bit PCM @ 1 week\n"
              << "  ReRAM @ 1 year           : "
              << rberAfter(MemTech::Reram, secondsPerYear) << "\n"
              << "  3-bit PCM @ 1 week       : "
              << rberAfter(MemTech::Pcm3, secondsPerWeek) << "\n"
              << "  3-bit PCM @ 1 hour (runtime, hourly refresh): "
              << rberAfter(MemTech::Pcm3, secondsPerHour) << "\n"
              << "  runtime ReRAM            : "
              << rberAfter(MemTech::Reram, 1.0) << "\n"
              << "\nObservation (paper): NVRAM RBER resembles Flash far"
                 " more than DRAM.\n";
    return 0;
}
