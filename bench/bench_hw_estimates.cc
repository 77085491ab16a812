/**
 * @file
 * Section V-E / Fig 13: hardware cost estimates for the proposal's
 * engines (in-chip 22-EC BCH encoder, processor-side RS and BCH
 * decoders) and the rates at which each engages at runtime.
 */

#include <iostream>

#include "bench_common.hh"
#include "chipkill/hw_model.hh"
#include "common/table.hh"
#include "reliability/sdc_model.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    banner("Section V-E / Fig 13", "hardware cost and engagement model");

    const HwEstimates hw;
    Table t({"engine", "area (mm^2)", "latency (ns)", "where"});
    t.row()
        .cell("22-EC BCH encoder, 256B (XOR tree)")
        .cell(hw.bchEncoderAreaMm2, 3)
        .cell(hw.bchEncoderLatencyNs, 3)
        .cell("inside each NVRAM chip (2 metal layers)");
    t.row()
        .cell("RS(72,64) multi-byte decoder")
        .cell(hw.rsDecoderAreaMm2, 3)
        .cell(hw.rsDecoderLatencyNs, 3)
        .cell("memory controller");
    t.row()
        .cell("22-EC BCH (VLEW) decoder")
        .cell(hw.bchDecoderAreaMm2, 3)
        .cell(hw.bchDecoderLatencyNs, 3)
        .cell("memory controller");
    t.print(std::cout);

    const EngagementRates rates;
    SdcInputs in;
    in.rber = 2e-4;
    std::cout << "\nEngagement at 2e-4 RBER:\n"
              << "  multi-error RS correction : 1/" << 1.0 / rates.rsMultiErrorPerRead
              << " of reads (paper: 1/200)\n"
              << "  VLEW BCH correction       : "
              << rates.bchCorrectionPerRead << " of reads (paper: 1.8/10000)\n"
              << "  model fallback fraction   : "
              << vlewFallbackFraction(in, 2) << "\n"
              << "\nWhy not correct VLEWs inside the chips? Flash"
                 " precedent (Section IV-A):\n  embedded correction"
                 " costs 3x performance or 16x density, ~66% energy —\n"
                 "  encoding is a linear XOR tree, correction solves"
                 " large equation systems.\n";
    return 0;
}
