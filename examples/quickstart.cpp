/**
 * @file
 * Quickstart: a five-minute tour of the nvchipkill public API.
 *
 * Builds a bit-accurate persistent-memory rank with the paper's
 * protection layout (22-EC BCH VLEWs per chip + RS(72,64) parity chip),
 * writes data through the XOR-sum path, injects raw bit errors, reads
 * with the opportunistic-RS/VLEW-fallback procedure, survives a chip
 * failure, and scrubs at "boot".
 */

#include <cstdio>
#include <cstring>

#include "chipkill/pm_rank.hh"
#include "common/env.hh"
#include "reliability/error_model.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    // A small rank: 1024 blocks = 64KB of protected persistent memory.
    PmRank rank(1024);
    Rng rng(12345);
    rank.initialize(rng);

    std::printf("nvchipkill quickstart\n");
    std::printf("  rank: %u blocks, %u chips, %u VLEWs/chip, %.1f%% "
                "storage overhead\n\n",
                rank.blocks(), rank.chips(), rank.vlewsPerChip(),
                100.0 * rank.params().totalStorageCost());

    // 1. Write a block. The library models the paper's write path: the
    // controller sends old XOR new; chips update data and ECC locally.
    std::uint8_t message[blockBytes];
    std::memcpy(message, "chipkill-correct for persistent memory: "
                         "decouple boot & runtime!", 64);
    rank.writeBlock(42, message);

    // 2. A year passes without refresh: inject the boot-time RBER.
    const double year_rber =
        rberAfter(MemTech::Reram, secondsPerYear);
    const auto flipped = rank.injectErrors(rng, year_rber);
    std::printf("after one year without refresh (RBER %.0e): %llu raw "
                "bit errors\n",
                year_rber,
                static_cast<unsigned long long>(flipped));

    // 3. Read the block back: the runtime path corrects it.
    std::uint8_t readback[blockBytes];
    const auto read = rank.readBlock(42, readback);
    const char *path_name[] = {"clean", "RS-accepted", "VLEW-fallback",
                               "chip-recovered", "FAILED"};
    std::printf("read block 42 -> path=%s, correct=%s\n",
                path_name[static_cast<int>(read.path)],
                read.dataCorrect ? "yes" : "no");

    // 4. Boot scrub: every VLEW fetched and corrected.
    const auto scrub = rank.bootScrub();
    std::printf("boot scrub: %llu VLEWs scanned, %llu bits corrected, "
                "pristine=%s\n",
                static_cast<unsigned long long>(scrub.vlewsScanned),
                static_cast<unsigned long long>(scrub.bitsCorrected),
                rank.isPristine() ? "yes" : "no");

    // 5. Kill a chip; chipkill-correct earns its name.
    rank.failChip(3, rng);
    const auto recovered = rank.readBlock(42, readback);
    std::printf("chip 3 died -> read path=%s, correct=%s\n",
                path_name[static_cast<int>(recovered.path)],
                recovered.dataCorrect ? "yes" : "no");
    const auto rebuild = rank.bootScrub();
    std::printf("scrub rebuilt %u chip(s); rank pristine=%s\n",
                rebuild.chipsRecovered,
                rank.isPristine() ? "yes" : "no");

    return rank.isPristine() ? 0 : 1;
}
