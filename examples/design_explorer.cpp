/**
 * @file
 * Design-space explorer: an architect's calculator over the analytical
 * models. For a chosen raw bit error rate (default: the 1e-3 boot
 * target; pass another on the command line), prints what every
 * protection strategy costs and where the proposal's decoupled design
 * lands, including the runtime threshold/SDC trade-off.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "ecc/code_params.hh"
#include "reliability/error_model.hh"
#include "reliability/sdc_model.hh"
#include "reliability/storage_model.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    // The whole argument must be a number in (0, 0.5): trailing junk
    // ("1e-3junk"), a word, NaN and out-of-range values exit 2.
    double rber = rber::bootTarget;
    char *end = nullptr;
    if (argc > 1)
        rber = std::strtod(argv[1], &end);
    if (argc > 2 || (argc > 1 && (end == argv[1] || *end != '\0')) ||
        !(rber > 0.0 && rber < 0.5)) {
        std::fprintf(stderr, "usage: %s [rber in (0, 0.5)]\n", argv[0]);
        return 2;
    }

    std::printf("design-space explorer @ boot RBER %.2e "
                "(UE target 1e-15/block)\n\n",
                rber);

    StorageTargets in;
    in.rber = rber;

    std::printf("1. chipkill-correct strategies:\n");
    Table t({"strategy", "correction", "total storage",
             "chip failure?"});
    const auto bit_only = bitErrorOnlyBch(in);
    const auto brute = bruteForceChipkillBch(in);
    const auto xed = xedExtension(in);
    const auto samsung = samsungExtension(in);
    const auto duo = duoExtension(in);
    const auto vlew = vlewScheme(in, 256);
    auto add_row = [&t](const StorageSolution &s, const char *fail) {
        t.row().cell(s.scheme);
        if (s.feasible) {
            t.cell(std::to_string(s.t) + "-EC").pct(s.totalOverhead);
        } else {
            t.cell("-").cell("infeasible");
        }
        t.cell(fail);
    };
    add_row(bit_only, "no");
    add_row(brute, "yes");
    add_row(xed, "yes");
    add_row(samsung, "yes");
    add_row(duo, "yes");
    add_row(vlew, "yes  <- the proposal");
    t.print(std::cout);

    std::printf("\n2. VLEW length sweep (why 256B):\n");
    Table t2({"data/word", "t", "total storage"});
    for (unsigned bytes : {16u, 64u, 256u, 1024u}) {
        const auto row = vlewScheme(in, bytes);
        t2.row()
            .cell(row.scheme)
            .cell(std::uint64_t{row.t})
            .pct(row.totalOverhead);
    }
    t2.print(std::cout);

    std::printf("\n3. runtime threshold trade-off (RS(72,64), "
                "runtime RBER 2e-4):\n");
    SdcInputs sdc;
    sdc.rber = rber::runtimePcm3Hourly;
    Table t3({"accept <= t corrections", "SDC rate", "meets 1e-17?",
              "VLEW fallback rate"});
    for (unsigned thr : {1u, 2u, 3u, 4u}) {
        const double rate = sdcRate(sdc, thr);
        t3.row()
            .cell(std::uint64_t{thr})
            .cell(rate, 2)
            .cell(rate <= rber::sdcTargetPerBlock ? "yes" : "NO")
            .pct(vlewFallbackFraction(sdc, thr), 3);
    }
    t3.print(std::cout);
    std::printf("\nThe paper picks threshold 2: the largest value that "
                "meets the SDC target,\nminimizing VLEW fallback "
                "bandwidth.\n");
    return 0;
}
