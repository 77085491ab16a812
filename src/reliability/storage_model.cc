#include "storage_model.hh"

#include <cmath>

#include "common/log.hh"
#include "ecc/code_params.hh"
#include "reliability/binomial.hh"

namespace nvck {

namespace {

constexpr unsigned maxStrength = 256;

/**
 * Find the smallest t such that a BCH word of @p k_bits data plus the
 * paper-accounted code bits survives @p rber with word-failure
 * probability <= @p word_target. Returns maxStrength+1 if infeasible.
 */
unsigned
solveBchStrength(unsigned k_bits, double rber, double word_target)
{
    for (unsigned t = 0; t <= maxStrength; ++t) {
        const unsigned n = k_bits + bchCheckBitsPaper(t ? t : 1, k_bits) *
                                        (t ? 1 : 0);
        const unsigned word = t ? n : k_bits;
        if (binomialTail(word, t + 1, rber) <= word_target)
            return t;
    }
    return maxStrength + 1;
}

} // namespace

StorageSolution
bitErrorOnlyBch(const StorageTargets &in)
{
    StorageSolution out;
    out.scheme = "per-block BCH (bit errors only)";
    const unsigned k = 512; // one 64B block
    const unsigned t = solveBchStrength(k, in.rber, in.ueTarget);
    if (t > maxStrength) {
        out.feasible = false;
        return out;
    }
    out.t = t;
    out.codeOverhead = bchOverheadPaper(t, k);
    out.totalOverhead = out.codeOverhead;
    return out;
}

StorageSolution
bruteForceChipkillBch(const StorageTargets &in)
{
    StorageSolution out;
    out.scheme = "per-block BCH absorbing a chip (brute force)";
    const unsigned k = 512;
    const unsigned t_rand = solveBchStrength(k, in.rber, in.ueTarget);
    if (t_rand > maxStrength) {
        out.feasible = false;
        return out;
    }
    // A failed chip contributes up to 64 wrong bits per block on top of
    // the random errors (Section III-A).
    out.t = in.chipBeatBits + t_rand;
    out.codeOverhead = bchOverheadPaper(out.t, k);
    out.totalOverhead = out.codeOverhead;
    return out;
}

namespace {

/**
 * Shared body for the on-die-BCH + parity-chip extensions (XED,
 * Samsung): per-chip words of @p word_data_bits, eight data chips per
 * rank, one parity chip.
 */
StorageSolution
onDiePlusParity(const StorageTargets &in, unsigned word_data_bits,
                const std::string &name)
{
    StorageSolution out;
    out.scheme = name;
    // Each 64B block touches one word per chip; any word failing makes
    // the block uncorrectable (the parity chip is budgeted for a whole
    // chip failure, not random-error cleanup).
    const double word_target = in.ueTarget / in.dataChips;
    const unsigned t = solveBchStrength(word_data_bits, in.rber,
                                        word_target);
    if (t > maxStrength) {
        out.feasible = false;
        return out;
    }
    out.t = t;
    out.codeOverhead = bchOverheadPaper(t, word_data_bits);
    out.totalOverhead =
        out.codeOverhead +
        (1.0 / in.dataChips) * (1.0 + out.codeOverhead);
    return out;
}

} // namespace

StorageSolution
xedExtension(const StorageTargets &in)
{
    return onDiePlusParity(in, 64, "XED-like (8B on-die BCH + parity chip)");
}

StorageSolution
samsungExtension(const StorageTargets &in)
{
    return onDiePlusParity(in, 128,
                           "Samsung-like (16B on-die BCH + parity chip)");
}

StorageSolution
duoExtension(const StorageTargets &in)
{
    StorageSolution out;
    out.scheme = "DUO-like (rank-level RS, bytes)";
    const double p_byte = symbolErrorProb(in.rber, 8);
    // r = 8 erasure bytes for a dead chip + 2 per random byte error;
    // the word grows with t, so iterate to a fixed point.
    for (unsigned t = 0; t <= maxStrength; ++t) {
        const unsigned r = in.dataChips + 2 * t;
        const unsigned n_bytes = 64 + r;
        if (binomialTail(n_bytes, t + 1, p_byte) <= in.ueTarget) {
            out.t = t;
            out.codeOverhead = static_cast<double>(r) / 64.0;
            out.totalOverhead = out.codeOverhead;
            return out;
        }
    }
    out.feasible = false;
    return out;
}

StorageSolution
vlewScheme(const StorageTargets &in, unsigned vlew_data_bytes)
{
    StorageSolution out;
    out.scheme = "VLEW(" + std::to_string(vlew_data_bytes) +
                 "B) + parity chip";
    const unsigned k_bits = vlew_data_bytes * 8;
    const double word_target = in.ueTarget / in.dataChips;
    const unsigned t = solveBchStrength(k_bits, in.rber, word_target);
    if (t > maxStrength) {
        out.feasible = false;
        return out;
    }
    out.t = t;
    out.codeOverhead = bchOverheadPaper(t, k_bits);
    out.totalOverhead =
        out.codeOverhead +
        (1.0 / in.dataChips) * (1.0 + out.codeOverhead);
    return out;
}

FlashEccRow
flashEccRow(unsigned t, double ue_target)
{
    const unsigned k_bits = 512 * 8;
    FlashEccRow row;
    row.t = t;
    row.overhead = bchOverheadPaper(t, k_bits);
    const unsigned n = k_bits + bchCheckBitsPaper(t, k_bits);
    // Largest RBER this strength tolerates at the UE target.
    double lo = 1e-12, hi = 0.5;
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = std::sqrt(lo * hi);
        if (binomialTail(n, t + 1, mid) <= ue_target)
            lo = mid;
        else
            hi = mid;
    }
    row.maxRber = lo;
    return row;
}

} // namespace nvck
