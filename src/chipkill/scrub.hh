/**
 * @file
 * Batched whole-rank scrub engine (Section V-B made cheap).
 *
 * At realistic RBERs almost every VLEW word is clean, so a sweep is
 * dominated by proving it: VlewStore::scrubWord classifies each word
 * with one streaming residue pass straight out of the media, with no
 * codeword assembly and no syndrome work for clean words, and decodes
 * a dirty word from that residue in place. A word whose bits have not
 * changed since its last clean or uncorrectable verdict is answered
 * from the store's verdict memo without a pass. The ScrubEngine only fans
 * a store's words out to ThreadPool workers in fixed-size batches with
 * disjoint result slots, so outcomes are bit-identical for any worker
 * count (the determinism contract of common/threadpool.hh).
 *
 * The word-at-a-time reference the engine is pinned against lives
 * with the tests (tests/chipkill/scrub_reference.hh).
 */

#ifndef NVCK_CHIPKILL_SCRUB_HH
#define NVCK_CHIPKILL_SCRUB_HH

#include <cstddef>
#include <vector>

#include "chipkill/vlew_store.hh"

namespace nvck {

class ThreadPool;

/** The batched whole-rank scrub engine. */
class ScrubEngine
{
  public:
    /** Scrub words per parallel batch. */
    static constexpr std::size_t batchWords = 64;

    /** @param pool worker pool; null means ThreadPool::global(). */
    explicit ScrubEngine(ThreadPool *pool = nullptr) : workers(pool) {}

    /**
     * Scrub every word of @p store in place. Outcome index = word
     * index. Words whose @p skip flag is set (an empty vector skips
     * none) are left untouched and reported clean; the caller owns
     * the policy behind the flags.
     */
    std::vector<ScrubWordResult>
    sweep(VlewStore &store, const std::vector<bool> &skip = {}) const;

  private:
    ThreadPool *workers;
};

} // namespace nvck

#endif // NVCK_CHIPKILL_SCRUB_HH
