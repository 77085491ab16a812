/**
 * @file
 * Section V-E: operating a rank after a permanent chip failure.
 *
 * A permanently dead chip would force frequent VLEW corrections (and
 * with it high overheads), so the paper offers two remedies:
 *
 *  1. retire the affected memory after migrating its data elsewhere
 *     (what most servers do today), or
 *  2. remap the failed chip's contents onto the ECC (parity) chip,
 *     giving up the per-block RS bits, and dynamically *re-encode each
 *     VLEW from 256B of data striped across all surviving chips*: the
 *     reconfigured VLEW spans 256B/64B = 4 blocks, so correcting one
 *     block costs only four regular reads instead of 36. Length and
 *     strength stay the same, so no extra storage is needed.
 *
 * DegradedRank implements remedy 2 as a standalone bit-accurate model:
 * eight surviving chips hold data (the old parity chip now stores the
 * dead chip's remapped contents), and each VLEW covers four whole
 * blocks across the rank.
 */

#ifndef NVCK_CHIPKILL_DEGRADED_HH
#define NVCK_CHIPKILL_DEGRADED_HH

#include <cstdint>
#include <vector>

#include "chipkill/recovery.hh"
#include "chipkill/vlew_store.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "ecc/code_params.hh"

namespace nvck {

class PmRank;

/** Read outcome in degraded mode. */
struct DegradedReadResult
{
    bool usedVlew = false;    //!< needed VLEW correction
    unsigned corrections = 0; //!< bit corrections applied
    bool dataCorrect = false;
    bool failed = false;
    /** Corrected for clean reads, FellBackToVlew when the striped VLEW
     *  had to fix bits, DetectedUE when the read failed. */
    RecoveryOutcome outcome = RecoveryOutcome::Corrected;
};

/** Persistent image of a degraded rank (see RankSnapshot). */
struct DegradedSnapshot
{
    /** One striped VLEW word per four blocks, 64B beats. */
    VlewStore media;
    std::vector<bool> poisonedVlew;

    bool operator==(const DegradedSnapshot &) const = default;
};

/** A rank running without per-block RS protection after chip loss. */
class DegradedRank
{
  public:
    /**
     * @param num_blocks capacity in 64B blocks (multiple of 4); the
     *        VLEW length/strength are the paper's (ProposalParams).
     */
    explicit DegradedRank(unsigned num_blocks);

    /** Random golden content + encode the striped VLEWs. */
    void initialize(Rng &rng);

    /**
     * Build a degraded rank from a healthy one that just lost
     * @p failed_chip: the survivors' (already scrubbed) contents are
     * carried over and the parity chip's storage is reused for the
     * dead chip's rebuilt data.
     */
    static DegradedRank takeOver(const PmRank &healthy,
                                 unsigned failed_chip);

    unsigned blocks() const { return numBlocks; }

    /** Blocks spanned by one reconfigured VLEW (4). */
    unsigned
    blocksPerVlew() const
    {
        return geom.vlewDataBytes / blockBytes;
    }

    /** Write through the XOR-sum path (code bits updated linearly). */
    void writeBlock(unsigned block, const std::uint8_t *new_data);

    /**
     * Apply a power-cut-torn write: the data delta reached the media
     * but the linear code-bit delta did so only when @p code_applied
     * (the EUR drained before the cut). Golden copies record the full
     * intent; recovery (scrub) decides what the media settles on.
     */
    void applyTornWrite(unsigned block, const std::uint8_t *new_data,
                        bool code_applied);

    /** Read with VLEW correction (no RS tier anymore). */
    DegradedReadResult readBlock(unsigned block, std::uint8_t *out);

    /**
     * Scrub every striped VLEW. Corrected when every span decoded
     * (rolling torn writes back to the old data where the delta fits
     * the BCH budget); DetectedUE when any span was uncorrectable —
     * those spans are zeroed and poisoned rather than left as silent
     * garbage. Ends by re-syncing the golden copies to the surviving
     * contents, which are the ground truth from here on.
     */
    RecoveryOutcome scrub();

    /** Whether @p block sits in a span scrub() declared lost. */
    bool isPoisoned(unsigned block) const;

    /**
     * Declare striped VLEW @p vlew lost: zero its data and code and
     * mark it a reported UE, exactly as scrub() does for spans it
     * cannot decode. Used by the online failover when a source block
     * was already a standing UE on the healthy rank — the loss is
     * carried over explicitly rather than migrated as garbage.
     */
    void poisonSpan(unsigned vlew);

    /** Number of striped VLEW spans standing as reported UEs. */
    unsigned poisonedSpans() const;

    /** Capture / reinstate the persistent image. */
    DegradedSnapshot snapshot() const;
    void restore(const DegradedSnapshot &snap);

    const RecoveryCounters &
    recoveryCounters() const
    {
        return recCounters;
    }

    void
    recordRecoveryStats(StatGroup &group) const
    {
        recCounters.record(group);
    }

    void resetRecoveryStats() { recCounters.reset(); }

    /** Inject random bit errors into data + code storage. */
    std::uint64_t injectErrors(Rng &rng, double rber);

    /** Extra blocks fetched per VLEW correction (3 + code blocks). */
    unsigned correctionFetchBlocks() const;

    bool isPristine() const;
    void goldenBlock(unsigned block, std::uint8_t *out) const;

  private:
    ProposalParams geom;
    unsigned numBlocks;
    unsigned numVlews;
    /** Block-major data: beat b = block b, word v = blocks [4v, 4v+4). */
    VlewStore media;
    /** Spans scrub() declared lost (zeroed + reported UE). */
    std::vector<bool> poisonedVlew;
    RecoveryCounters recCounters;
};

} // namespace nvck

#endif // NVCK_CHIPKILL_DEGRADED_HH
