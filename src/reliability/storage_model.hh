/**
 * @file
 * Analytical storage-cost models for every protection scheme the paper
 * compares (Figs 2, 3, 4 and Sections III/IV): per-block BCH bit-error
 * correction, extensions of DRAM chipkill-correct (XED, the Samsung
 * HPCA'17 study, DUO), storage-style VLEW + parity chip at several
 * codeword lengths, and the proposal itself.
 *
 * Each model answers: what is the minimum total storage overhead that
 * meets the per-block uncorrectable-error target at a given RBER?
 */

#ifndef NVCK_RELIABILITY_STORAGE_MODEL_HH
#define NVCK_RELIABILITY_STORAGE_MODEL_HH

#include <string>

namespace nvck {

/** A solved protection configuration. */
struct StorageSolution
{
    std::string scheme;       //!< human-readable scheme name
    unsigned t = 0;           //!< correction strength chosen
    double codeOverhead = 0;  //!< in-chip / in-word code-bit overhead
    double totalOverhead = 0; //!< including any parity chip
    bool feasible = true;     //!< false when no strength meets target
};

/** Common inputs to all models. */
struct StorageTargets
{
    double rber = 1e-3;          //!< raw bit error rate
    double ueTarget = 1e-15;     //!< per-64B-block UE probability target
    unsigned dataChips = 8;      //!< data chips per rank
    unsigned chipBeatBits = 64;  //!< bits per chip per block
};

/**
 * Per-block t-EC BCH with no chip-failure protection (Section III-A,
 * e.g. 14-EC at 28% for 1e-3 RBER).
 */
StorageSolution bitErrorOnlyBch(const StorageTargets &in);

/**
 * Brute-force chipkill via per-block BCH strong enough to absorb a full
 * chip (64 bits) on top of random errors (Section III-A: 78-EC, 152%).
 */
StorageSolution bruteForceChipkillBch(const StorageTargets &in);

/**
 * XED-like extension: per-chip BCH over 8B words + parity chip
 * (Section III-B).
 */
StorageSolution xedExtension(const StorageTargets &in);

/**
 * Samsung-study-like extension: per-chip BCH over 16B words + parity
 * chip (Section III-B).
 */
StorageSolution samsungExtension(const StorageTargets &in);

/**
 * DUO-like extension: rank-level RS over each 64B block; one check byte
 * per chip-failure erasure plus two per random byte error
 * (Section III-B).
 */
StorageSolution duoExtension(const StorageTargets &in);

/**
 * Storage-inspired VLEW scheme: per-chip BCH word holding
 * @p vlew_data_bytes of data plus a parity chip for chip failures
 * (Section IV, Fig 4). @p paper_code_bits uses the paper's
 * t*(ceil(log2 k)+1) accounting for the code-bit count.
 */
StorageSolution vlewScheme(const StorageTargets &in,
                           unsigned vlew_data_bytes);

/**
 * One row of the flash-style ECC catalogue (Fig 3): a 512B codeword at
 * a correction strength commercial flash uses, its overhead and the
 * maximum RBER it tolerates at the UE target.
 */
struct FlashEccRow
{
    unsigned t;
    double overhead;
    double maxRber;
};
FlashEccRow flashEccRow(unsigned t, double ue_target);

} // namespace nvck

#endif // NVCK_RELIABILITY_STORAGE_MODEL_HH
