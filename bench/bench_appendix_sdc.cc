/**
 * @file
 * Appendix: miscorrection (silent data corruption) probability of the
 * per-block RS(72,64) as a function of the correction bound t. The
 * paper's Term A (enough errors to reach another codeword's ball) and
 * Term B (density of codeword balls) multiply to the SDC rate:
 * 3.2e-11 at t = 4 versus 3.3e-22 at t = 2 — the entire justification
 * for the acceptance threshold.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "reliability/error_model.hh"
#include "reliability/sdc_model.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    banner("Appendix", "RS(72,64) miscorrection probability model");

    for (double rber : {rber::runtimePcm3Hourly, rber::runtimeReram}) {
        SdcInputs in;
        in.rber = rber;
        std::cout << "\nRBER = " << rber << ":\n";
        Table t({"t (corrections)", "n_th", "Term A", "Term B",
                 "SDC rate", "vs 1e-17 target"});
        for (unsigned t_val : {1u, 2u, 3u, 4u}) {
            const unsigned n_th = in.checkSymbols + 1 - t_val;
            const double a = sdcTermA(in, t_val);
            const double b = sdcTermB(in, t_val);
            const double sdc = a * b;
            t.row()
                .cell(std::uint64_t{t_val})
                .cell(std::uint64_t{n_th})
                .cell(a, 2)
                .cell(b, 2)
                .cell(sdc, 2)
                .cell(sdc / rber::sdcTargetPerBlock, 2);
        }
        t.print(std::cout);
    }

    SdcInputs paper;
    paper.rber = 2e-4;
    std::cout << "\nPaper checkpoints @ 2e-4: Term A(t=4) = 1.3e-7,"
                 " Term B(t=4) = 2.4e-4 -> SDC 3.2e-11\n"
              << "                          Term A(t=2) = 3.6e-11,"
                 " Term B(t=2) = 9.1e-12 -> SDC 3.3e-22\n"
              << "Model:                    SDC(t=4) = " << sdcRate(paper, 4)
              << ", SDC(t=2) = " << sdcRate(paper, 2) << "\n"
              << "t = 4 misses the 1e-17 target by ~3,000,000x;"
                 " t = 2 beats it by orders of magnitude.\n";
    return 0;
}
