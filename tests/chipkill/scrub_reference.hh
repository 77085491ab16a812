/**
 * @file
 * Word-at-a-time scrub reference, built only from VlewStore's const
 * view and BchCodec::decode: each word's stored codeword is assembled,
 * decoded whole, and its stuck cells re-asserted from the const stuck
 * map. It writes nothing, so the tests can pin the in-place word scrub
 * (VlewStore::scrubWord) and the batched ScrubEngine against it.
 */

#ifndef NVCK_TESTS_CHIPKILL_SCRUB_REFERENCE_HH
#define NVCK_TESTS_CHIPKILL_SCRUB_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "chipkill/vlew_store.hh"
#include "common/bitvec.hh"

namespace nvck {

/** What a scrub of every word of a store must produce. */
struct ScrubReference
{
    /** Outcome per word (index = word). */
    std::vector<ScrubWordResult> outcomes;
    /** Expected post-scrub stored codeword [code | data] per word. */
    std::vector<BitVec> codewords;
};

/**
 * Reference scrub of every word of @p store. Words whose @p skip flag
 * is set (an empty vector skips none) report clean and keep their
 * codeword.
 */
ScrubReference scrubReference(const VlewStore &store,
                              const std::vector<bool> &skip = {});

/** True when every word of @p scrubbed holds the reference codeword. */
bool matchesReference(const VlewStore &scrubbed,
                      const ScrubReference &ref);

/** Aggregate totals of one whole-store sweep. */
struct ScrubSweepStats
{
    std::uint64_t wordsScanned = 0;
    std::uint64_t wordsDirty = 0; //!< corrected or uncorrectable
    std::uint64_t wordsUncorrectable = 0;
    std::uint64_t bitsCorrected = 0;
};

/** Reduce an outcome vector to sweep totals. */
ScrubSweepStats tally(const std::vector<ScrubWordResult> &outcomes);

} // namespace nvck

#endif // NVCK_TESTS_CHIPKILL_SCRUB_REFERENCE_HH
