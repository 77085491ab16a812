/**
 * @file
 * Figure 3: bit-error-correcting BCH in commercial Flash: 512B-data
 * codewords at 12..41-bit correction, the storage-system existence
 * proof that very long ECC words buy strong correction cheaply.
 */

#include <iostream>

#include "bench_common.hh"
#include "sweeps.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 3", "BCH ECC words used by commercial Flash (512B data)");
    fig03FlashEcc(std::cout, opts);
    return 0;
}
