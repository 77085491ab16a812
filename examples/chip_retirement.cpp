/**
 * @file
 * Chip-retirement walkthrough (Section V-E): a rank loses a chip
 * permanently. Staying in healthy mode would make every access to the
 * dead chip's VLEWs take the expensive correction path, so the system
 * (1) recovers the chip's contents at the next scrub, then (2)
 * reconfigures into degraded mode — per-block RS bits given up, VLEWs
 * re-encoded as 4-block stripes across the surviving chips — and keeps
 * serving reads and writes with a 5x cheaper correction fetch.
 */

#include <cstdio>
#include <cstring>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "common/env.hh"
#include "reliability/error_model.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    Rng rng(4242);
    PmRank healthy(512);
    healthy.initialize(rng);

    std::printf("chip-retirement walkthrough (Section V-E)\n\n");
    std::printf("phase 1: healthy operation, %u blocks, correction "
                "fetch = %u blocks\n",
                healthy.blocks(),
                healthy.params().vlewFetchOverheadBlocks() + 1);

    // Write a recognizable payload.
    std::uint8_t payload[blockBytes];
    for (unsigned i = 0; i < blockBytes; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
    healthy.writeBlock(123, payload);

    // Phase 2: chip 2 dies; runtime reads survive through erasures but
    // every access pays the chip-recovery path.
    healthy.failChip(2, rng);
    std::uint8_t out[blockBytes];
    const auto degraded_read = healthy.readBlock(123, out);
    std::printf("\nphase 2: chip 2 died -> reads recover via RS "
                "erasures (path=%d, correct=%s) but every access "
                "pays the slow path\n",
                static_cast<int>(degraded_read.path),
                degraded_read.dataCorrect ? "yes" : "no");

    // Phase 3: scrub rebuilds the chip's data, then reconfigure.
    const auto scrub = healthy.bootScrub();
    std::printf("\nphase 3: scrub rebuilt %u chip(s); reconfiguring "
                "VLEWs across the 8 survivors + repurposed parity "
                "chip\n",
                scrub.chipsRecovered);
    DegradedRank degraded = DegradedRank::takeOver(healthy, 2);
    std::printf("         degraded VLEW spans %u blocks; correction "
                "fetch = %u blocks (was %u)\n",
                degraded.blocksPerVlew(),
                degraded.correctionFetchBlocks() + 1,
                healthy.params().vlewFetchOverheadBlocks() + 1);

    // Phase 4: continued operation under runtime errors.
    degraded.readBlock(123, out);
    const bool payload_ok = std::memcmp(out, payload, blockBytes) == 0;
    std::printf("\nphase 4: payload intact after takeover: %s\n",
                payload_ok ? "yes" : "NO");

    unsigned corrected_reads = 0;
    for (int round = 0; round < 3; ++round) {
        degraded.injectErrors(rng, rber::runtimePcm3Hourly);
        for (unsigned b = 0; b < degraded.blocks(); b += 5) {
            const auto res = degraded.readBlock(b, out);
            if (res.failed || !res.dataCorrect) {
                std::printf("  UNEXPECTED failure at block %u\n", b);
                return 1;
            }
            if (res.usedVlew)
                ++corrected_reads;
        }
        // Writes keep working through the striped code path.
        payload[0] = static_cast<std::uint8_t>(round);
        degraded.writeBlock(123, payload);
    }
    std::printf("         3 rounds of runtime errors: all reads "
                "correct, %u used striped-VLEW correction\n",
                corrected_reads);

    const bool clean =
        degraded.scrub() == nvck::RecoveryOutcome::Corrected &&
        degraded.isPristine();
    std::printf("\nfinal scrub: rank pristine = %s\n",
                clean ? "yes" : "NO");
    return payload_ok && clean ? 0 : 1;
}
