/**
 * @file
 * Figure 2: total storage cost when adapting DRAM chipkill-correct
 * schemes (XED-, Samsung-, DUO-style extensions) to dense NVRAM-based
 * persistent memory, swept over RBER. The paper's headline: the
 * cheapest extension costs >= 69% at the 1e-3 boot-time RBER, versus
 * 27% for the proposal.
 *
 * Each RBER is one analytic ParallelSweep point solving all five
 * prior-art storage models.
 */

#include <array>
#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "ecc/code_params.hh"
#include "reliability/storage_model.hh"
#include "sim/parallel.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 2",
           "storage cost of DRAM-chipkill extensions vs RBER");

    const double rbers[] = {1e-6, 1e-5, 1e-4, 2e-4, 5e-4, 1e-3};

    ParallelSweep<std::array<StorageSolution, 5>> sweep(2, opts);
    for (double rber : rbers)
        sweep.add("rber " + Table::formatNumber(rber, 2), [rber] {
            StorageTargets in;
            in.rber = rber;
            return std::array<StorageSolution, 5>{
                xedExtension(in), samsungExtension(in),
                duoExtension(in), bitErrorOnlyBch(in),
                bruteForceChipkillBch(in)};
        });

    Table t({"RBER", "XED-like", "Samsung-like", "DUO-like",
             "bit-error-only BCH", "brute-force chipkill"});
    const auto outcomes = sweep.run();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        t.row().cell(rbers[outcomes[i].index], 2);
        for (const auto &sol : outcomes[i].value) {
            if (sol.feasible)
                t.pct(sol.totalOverhead);
            else
                t.cell("infeasible");
        }
    }
    t.print(std::cout);

    StorageTargets boot;
    boot.rber = 1e-3;
    const double cheapest =
        std::min({xedExtension(boot).totalOverhead,
                  samsungExtension(boot).totalOverhead,
                  duoExtension(boot).totalOverhead});
    const ProposalParams prop;
    std::cout << "\nAt the 1e-3 boot-time RBER:\n"
              << "  cheapest DRAM-chipkill extension : "
              << 100.0 * cheapest << "% (paper reports >= 69%)\n"
              << "  the proposal (Fig 6 layout)      : "
              << 100.0 * prop.totalStorageCost() << "%\n"
              << "  bit-error-only 14-EC BCH         : "
              << 100.0 * bitErrorOnlyBch(boot).totalOverhead
              << "% (no chip failure protection)\n";
    return 0;
}
