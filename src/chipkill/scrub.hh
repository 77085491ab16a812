/**
 * @file
 * Batched whole-rank scrub engine (Section V-B made cheap).
 *
 * The word-at-a-time scrub paths assemble every VLEW into a fresh
 * BitVec, run BchCodec::decode on it and copy the word back — even
 * though at realistic RBERs almost every word is clean.
 * The ScrubEngine restructures the sweep around that asymmetry:
 *
 *  - one streaming residue pass (BchCodec::residueAbsorb*) classifies
 *    each word clean/dirty straight out of the rank's storage, with no
 *    codeword assembly, no allocation, and no syndrome work at all for
 *    clean words — the dominant cost becomes O(bytes streamed) through
 *    the 64-bit-wide sliced lanes;
 *  - dirty words are decoded from the already-computed r-bit residue
 *    (BchCodec::solveFromResidue, the codec's one decode pipeline)
 *    and corrected by flipping bits in place;
 *  - words are fanned out to ThreadPool workers in fixed-size batches
 *    with disjoint result slots, so outcomes are bit-identical for any
 *    worker count (the determinism contract of common/threadpool.hh).
 *
 * Every sweep has a word-at-a-time reference twin (sweepReference) that
 * mirrors the historical per-word loops; the differential tests pin the
 * two paths to byte-identical media and identical outcome vectors.
 */

#ifndef NVCK_CHIPKILL_SCRUB_HH
#define NVCK_CHIPKILL_SCRUB_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace nvck {

class DegradedRank;
class PmRank;
class ThreadPool;

/** Outcome of one scrub word (a per-chip VLEW or striped VLEW). */
struct ScrubWordResult
{
    /** -1 uncorrectable, 0 clean (or skipped), else bits corrected. */
    int corrections = 0;
    /**
     * Bitmask of blocks within the word's span whose *data* bits had
     * corrections applied (bit b = b-th block of the span). Code-bit
     * corrections do not set mask bits.
     */
    std::uint64_t changedBlocks = 0;
};

inline bool
operator==(const ScrubWordResult &a, const ScrubWordResult &b)
{
    return a.corrections == b.corrections &&
           a.changedBlocks == b.changedBlocks;
}

/** Aggregate totals of one whole-rank sweep. */
struct ScrubSweepStats
{
    std::uint64_t wordsScanned = 0;
    std::uint64_t wordsDirty = 0; //!< corrected or uncorrectable
    std::uint64_t wordsUncorrectable = 0;
    std::uint64_t bitsCorrected = 0;
};

/** The batched whole-rank scrub engine. */
class ScrubEngine
{
  public:
    struct Options
    {
        /** Scrub words per parallel batch. */
        unsigned batchWords = 64;
        /** Worker pool; null means ThreadPool::global(). */
        ThreadPool *pool = nullptr;
    };

    ScrubEngine() = default;
    explicit ScrubEngine(const Options &options) : opts(options) {}

    /**
     * Batched sweep of every (chip, VLEW) word of @p rank, correcting
     * in place (stuck cells re-asserted, exactly like the per-word
     * path). Outcome index = chip * vlewsPerChip() + vlew.
     */
    std::vector<ScrubWordResult> sweep(PmRank &rank) const;

    /** The word-at-a-time reference twin of sweep(PmRank&). */
    std::vector<ScrubWordResult> sweepReference(PmRank &rank) const;

    /**
     * Batched sweep of every striped VLEW of @p rank. Poisoned spans
     * are skipped (reported clean); the caller owns poisoning policy.
     */
    std::vector<ScrubWordResult> sweep(DegradedRank &rank) const;

    /** The word-at-a-time reference twin of sweep(DegradedRank&). */
    std::vector<ScrubWordResult>
    sweepReference(DegradedRank &rank) const;

    /** Reduce an outcome vector to sweep totals. */
    static ScrubSweepStats
    tally(const std::vector<ScrubWordResult> &outcomes);

    /**
     * Scrub a single (chip, VLEW) word of @p rank in place — the
     * patrol-scrub granule of the runtime RAS engine (sim/ras.hh).
     * Same residue-classify + fast-decode pipeline as the batched
     * sweep, minus the fan-out.
     */
    ScrubWordResult
    scrubWord(PmRank &rank, unsigned chip, unsigned vlew) const
    {
        return scrubPmWord(rank, chip, vlew);
    }

  private:
    /** Residue-classify + fast-decode one (chip, vlew) word. */
    ScrubWordResult scrubPmWord(PmRank &rank, unsigned chip,
                                unsigned vlew) const;
    /** Residue-classify + fast-decode one striped VLEW. */
    ScrubWordResult scrubDegradedWord(DegradedRank &rank,
                                      unsigned vlew) const;
    /** Fan [0, words) out to the pool in batchWords-sized batches. */
    void forEachWord(std::size_t words,
                     const std::function<void(std::size_t)> &fn) const;

    Options opts;
};

} // namespace nvck

#endif // NVCK_CHIPKILL_SCRUB_HH
