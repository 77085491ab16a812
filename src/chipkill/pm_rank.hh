/**
 * @file
 * Bit-accurate functional model of one persistent-memory rank under the
 * paper's proposed protection layout (Fig 6):
 *
 *  - nine chips operate in lockstep: eight data chips plus one parity
 *    chip; each chip contributes 8B to every 64B block;
 *  - within each chip, every 256B of data in a row shares one 22-EC
 *    BCH VLEW whose 33B of code bits live in the same row;
 *  - the parity chip stores eight RS(72,64) check bytes per block (its
 *    contents are themselves VLEW-protected like any chip).
 *
 * The model stores real bits, injects real errors, and runs the real
 * codecs, implementing the paper's three operational paths:
 *
 *  - writes (Section V-D): the controller sends the bitwise XOR of old
 *    and new data; each chip recovers the new data by XORing with its
 *    stored old data and applies the linear BCH/RS code-bit delta.
 *    Pre-existing cell errors propagate one-to-one and never spread.
 *  - boot scrub (Section V-B): every VLEW is fetched and corrected; an
 *    uncorrectable VLEW marks a failed chip, which is rebuilt through
 *    RS erasure correction (or parity recomputation for the parity
 *    chip).
 *  - runtime reads (Section V-C, Fig 9): the per-block RS code
 *    opportunistically corrects bit errors; more than `threshold`
 *    corrections rejects the result and falls back to VLEW correction,
 *    preserving the RS budget for chip failures.
 */

#ifndef NVCK_CHIPKILL_PM_RANK_HH
#define NVCK_CHIPKILL_PM_RANK_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "chipkill/recovery.hh"
#include "chipkill/vlew_store.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "ecc/code_params.hh"
#include "ecc/rs.hh"

namespace nvck {

/** How a runtime read was resolved (Fig 9). */
enum class ReadPath
{
    Clean,         //!< zero RS syndrome
    RsAccepted,    //!< RS correction within the acceptance threshold
    VlewFallback,  //!< RS rejected; VLEWs corrected the bit errors
    ChipRecovered, //!< VLEW flagged a dead chip; RS erasure-corrected
    Failed,        //!< uncorrectable
};

/** Result of a runtime block read. */
struct BlockReadResult
{
    ReadPath path = ReadPath::Clean;
    /** Recovery verdict: Corrected for Clean/RsAccepted reads,
     *  MiscorrectionRisk when the RS tier proposed more than
     *  `threshold` corrections and the VLEW tier saved the word,
     *  FellBackToVlew for the other fallback reads, DetectedUE when
     *  the read failed (or hit a poisoned block). */
    RecoveryOutcome outcome = RecoveryOutcome::Corrected;
    unsigned rsCorrections = 0;
    unsigned vlewBitCorrections = 0;
    bool dataCorrect = false; //!< matches the golden copy
    /**
     * Per-chip attribution of the corrections (bit c = chip c, bit
     * chips()-1 = the parity chip): which chips had symbols or bits
     * corrected, and which chips' VLEWs were uncorrectable and had to
     * be erasure-rebuilt. The runtime RAS engine's health ledger is
     * fed from exactly these masks — a real decoder knows the
     * corrected symbol positions, so per-chip accounting costs
     * nothing extra.
     */
    std::uint16_t chipCorrectionMask = 0;
    std::uint16_t chipErasureMask = 0;
};

/** Outcome of a boot-time scrub. */
struct ScrubReport
{
    std::uint64_t vlewsScanned = 0;
    std::uint64_t vlewsWithErrors = 0;
    std::uint64_t bitsCorrected = 0;
    unsigned chipsRecovered = 0;
    bool parityChipRebuilt = false;
    bool uncorrectable = false;
};

/**
 * Persistent-media image of a rank: everything that survives a power
 * cut (chip data arrays, per-chip BCH code regions, golden references,
 * stuck cells, block health flags). Deliberately excludes all volatile
 * state — the LLC-held OMVs and the chips' EUR registerfiles live in
 * the timing model and are dropped by a crash, never snapshotted.
 */
struct RankSnapshot
{
    /** chips() x vlewsPerChip() words, chip-major, 8B beats. */
    VlewStore media;
    std::vector<bool> disabled;
    std::vector<bool> poisoned;

    bool operator==(const RankSnapshot &) const = default;
};

/** What crashRecovery() did to bring the rank back to consistency. */
struct CrashRecoveryReport
{
    std::uint64_t vlewsScanned = 0;
    std::uint64_t vlewsCorrected = 0; //!< VLEWs needing bit fixes
    std::uint64_t bitsCorrected = 0;
    std::uint64_t blocksRsResolved = 0;      //!< bounded RS decode
    std::uint64_t blocksErasureResolved = 0; //!< one-bad-chip rebuild
    std::uint64_t miscorrectionRejects = 0;  //!< >threshold proposals
    /** Chips with every VLEW uncorrectable, treated as failed. */
    std::vector<unsigned> deadChips;
    /** Blocks declared (and reported) uncorrectable: poisoned. */
    std::vector<unsigned> ueBlocks;
};

/**
 * The codecs of the fixed geometry (ProposalParams), built once per
 * process on first use and shared by every rank: the per-chip VLEW BCH
 * code (PmRank's and DegradedRank's media) and the per-block
 * RS(72,64). Both are immutable, so any thread may read them.
 */
std::shared_ptr<const BchCodec> vlewCodec();
const RsCodec &blockRsCodec();

/** The rank. */
class PmRank
{
  public:
    /**
     * @param num_blocks Capacity in 64B blocks under the paper's
     *        geometry (ProposalParams); must be a multiple of the VLEW
     *        span (32).
     */
    explicit PmRank(unsigned num_blocks);

    /** Fill with random golden content and encode all ECC. */
    void initialize(Rng &rng);

    unsigned blocks() const { return numBlocks; }
    unsigned chips() const { return dataChips + 1; }
    unsigned vlewsPerChip() const { return numVlews; }

    /**
     * Write a block through the paper's XOR-sum path: the argument is
     * the new 64B value; the model forms the XOR against the golden old
     * value (the LLC-held OMV) and lets each chip update data and code
     * bits internally.
     */
    void writeBlock(unsigned block, const std::uint8_t *new_data);

    /**
     * Crash-torn variant of writeBlock() for the CrashInjector: the
     * power fails mid-write, so only the chips selected by
     * @p data_mask (bit c = chip c; bit chips()-1 = the parity chip)
     * latched and applied the XOR-summed data delta, and of those only
     * the chips in @p code_mask drained the code-bit delta out of
     * their EUR before the cut. The golden copy tracks the full
     * intended value, exactly like writeBlock() — recovery decides
     * what the media actually holds.
     *
     * Physical invariant (Section V-D): data deltas land in the chips
     * at burst time, code deltas only at row close, so a partial burst
     * implies nothing has drained yet. @p code_mask must therefore be
     * zero unless @p data_mask covers every chip, and must always be a
     * subset of @p data_mask.
     */
    void applyTornWrite(unsigned block, const std::uint8_t *new_data,
                        std::uint16_t data_mask,
                        std::uint16_t code_mask);

    /**
     * Retire the coalesced EUR code-bit delta for @p block: bring the
     * media code bits of the chips in @p chip_mask from the state
     * described by @p settled_data (the last value whose code fully
     * drained — the pre-write image for a first write) up to the
     * current write intent. This is the second half of the two-phase
     * write the timing layer performs: data bursts land at burst time
     * (applyTornWrite with an empty code mask), code deltas drain at
     * row close — possibly much later, possibly covering several
     * coalesced bursts in one register, and possibly torn per chip by
     * a power cut mid-drain (@p chip_mask a strict subset).
     *
     * The golden code is not touched: it has tracked the full write
     * intent since burst time. Draining every chip makes the block's
     * media code consistent with its (new) data again.
     */
    void drainCodeBits(unsigned block, const std::uint8_t *settled_data,
                       std::uint16_t chip_mask = 0xffff);

    /**
     * Runtime read with opportunistic RS correction and VLEW fallback.
     * @param out receives the corrected 64B.
     * @param threshold max accepted RS corrections (2 in the paper).
     */
    BlockReadResult readBlock(unsigned block, std::uint8_t *out,
                              unsigned threshold = 2);

    /** Boot-time scrub of every VLEW, with chip-failure recovery. */
    ScrubReport bootScrub();

    /**
     * Scrub one (chip, VLEW) word in place — the patrol-scrub granule
     * of the runtime RAS engine (sim/ras.hh) and the spare's
     * copy-verify step (VlewStore::scrubWord).
     */
    ScrubWordResult
    scrubWord(unsigned chip, unsigned vlew)
    {
        return media.scrubWord(wordOf(chip, vlew));
    }

    /**
     * Post-crash recovery (Section V-B applied to torn writes): scrub
     * every VLEW, then verify every block's RS word, resolving torn
     * blocks to a *consistent* value — the old data (stale-code chips
     * rolled back by their VLEWs), the new data (all chips applied),
     * or an explicit poisoned UE. The pass never emits a mixed
     * old/new word as good data: RS proposals above @p threshold are
     * rejected (miscorrection gate) and one-bad-chip erasure rebuilds
     * are only trusted when the survivors' VLEWs vouch for them (dead
     * chip) or the rebuilt beats verify against the torn chip's own
     * stale code bits (rollback). On return the recovered contents
     * become the new ground truth (golden state is resynchronized);
     * poisoned blocks read as DetectedUE until rewritten.
     */
    CrashRecoveryReport crashRecovery(unsigned threshold = 2);

    /** True when crashRecovery() declared @p block an explicit UE. */
    bool isPoisoned(unsigned block) const;

    /** Capture the persistent-media image (cheap to restore). */
    RankSnapshot snapshot() const;
    /** Restore a previously captured image. */
    void restore(const RankSnapshot &snap);

    /**
     * Deterministically corrupt one stored byte (@p chip = chips()-1
     * addresses the parity chip) by XORing @p mask into it. Fault
     * primitive for targeted recovery tests; does not touch golden
     * state.
     */
    void corruptByte(unsigned chip, unsigned block, unsigned byte,
                     std::uint8_t mask);

    /** Flip each stored bit (data and code) with probability @p rber. */
    std::uint64_t injectErrors(Rng &rng, double rber);

    /** Garble an entire chip (0..7 data, 8 = parity). */
    void failChip(unsigned chip, Rng &rng);

    /** What one rebuildLaneSpan() call did. */
    struct LaneRebuildReport
    {
        unsigned blocksFilled = 0;   //!< beats reconstructed
        unsigned blocksPoisoned = 0; //!< declared UE (reported)
    };

    /**
     * Hot-spare lane rebuild: reconstruct @p chip's beats for one VLEW
     * span (blocks [vlew*32, (vlew+1)*32)) by RS erasure correction
     * (parity recomputation when @p chip is the parity chip) and
     * re-encode the lane's VLEW code bits for that span. The eight
     * erasures consume the whole RS budget, so the survivors are
     * expected to have been scrubbed immediately beforehand — a
     * survivor whose VLEW was uncorrectable must be flagged in
     * @p distrust_mask, and the span is then poisoned (reported UE)
     * instead of risking a silent version-mixed fill, mirroring the
     * crashRecovery() guard.
     */
    LaneRebuildReport rebuildLaneSpan(unsigned chip, unsigned vlew,
                                      unsigned threshold = 2,
                                      std::uint16_t distrust_mask = 0);

    /**
     * Drop a chip's stuck-cell map: the physical device behind the
     * lane was replaced (spare engaged, or repaired chip swapped in),
     * and wear-out damage belongs to the device, not the lane.
     */
    void clearStuckCells(unsigned chip);

    /**
     * Disable a worn-out block (Section V-E): logically zero its
     * contribution to each chip's VLEW and update code bits.
     */
    void disableBlock(unsigned block);
    bool isDisabled(unsigned block) const;

    /**
     * Mark a data cell permanently stuck (wear-out model, Section V-E):
     * the stored bit reads back as @p value no matter what is written.
     */
    void setStuckBit(unsigned chip, std::uint64_t byte_index,
                     unsigned bit, bool value);

    /**
     * Write-and-verify [86]: perform the write, re-read the raw stored
     * beats, and return the number of cells that failed to take the
     * intended value — the paper's mechanism for identifying worn-out
     * blocks to disable.
     */
    unsigned writeVerify(unsigned block, const std::uint8_t *new_data);

    /**
     * Model I/O transmission errors on the memory bus (paper footnote
     * 4): each transmitted beat bit flips with probability @p ber.
     * With Write-CRC enabled (DDR4-style, crc.hh) the chip detects the
     * corruption and requests a retransmit; without it the corrupted
     * sum is silently committed.
     */
    void setBusFaultModel(double ber, bool crc_enabled,
                          std::uint64_t seed = 1);

    /** Retransmits triggered by Write-CRC so far. */
    std::uint64_t crcRetries() const { return busRetries; }

    /** Golden (error-free) copy of a block, for verification. */
    void goldenBlock(unsigned block, std::uint8_t *out) const;

    /** True when all stored bits and code bits are error-free. */
    bool isPristine() const;

    /**
     * Estimated boot-scrub wall time for @p capacity_bytes of memory
     * on a channel moving @p bus_bytes_per_sec (Section V-B: <1.5min
     * per terabyte).
     */
    static double scrubSeconds(double capacity_bytes,
                               double bus_bytes_per_sec);

    /** The fixed geometry: the paper's layout (ProposalParams). */
    const ProposalParams &params() const { return geom; }

    /** Recovery verdict tallies (reads + crash recovery). */
    const RecoveryCounters &recoveryCounters() const
    {
        return recCounters;
    }
    /** Surface the recovery tallies through common/stats. */
    void recordRecoveryStats(StatGroup &group) const
    {
        recCounters.record(group);
    }
    void resetRecoveryStats() { recCounters.reset(); }

  private:
    /** Flat VlewStore beat of @p chip at @p block. */
    std::size_t
    beatOf(unsigned chip, unsigned block) const
    {
        return static_cast<std::size_t>(chip) * numBlocks + block;
    }

    /** VlewStore word of (@p chip, @p vlew). */
    std::size_t
    wordOf(unsigned chip, unsigned vlew) const
    {
        return static_cast<std::size_t>(chip) * numVlews + vlew;
    }

    /** Stored (possibly erroneous) 8B beat of @p chip at @p block. */
    const std::uint8_t *
    chipBeat(unsigned chip, unsigned block) const
    {
        return media.beat(beatOf(chip, block));
    }

    /** Golden 8B beat. */
    const std::uint8_t *
    goldenBeat(unsigned chip, unsigned block) const
    {
        return media.goldenBeat(beatOf(chip, block));
    }

    /**
     * First RS symbol of @p chip's 8B beat: the parity chip's check
     * bytes lead the word, data chip c follows at 8 + 8c.
     */
    unsigned firstSymbol(unsigned chip) const;

    /** One block's RS word (check bytes, then the data chips' beats),
     *  held without heap allocation. */
    using RsWord = std::array<GfElem, chipBeatBytes + blockBytes>;
    /** RS erasure positions covering one chip's beat. */
    using ChipErasures = std::array<std::uint32_t, chipBeatBytes>;

    /** Assemble the stored RS codeword for a block. */
    RsWord assembleRsWord(unsigned block) const;

    /** @p chip's beat (RS check bytes for the parity chip) of an RS
     *  codeword. */
    void beatFromWord(const RsWord &word, unsigned chip,
                      std::uint8_t *out8) const;

    /** RS erasure positions covering @p chip's beat. */
    ChipErasures chipErasures(unsigned chip) const;

    /** RS check bytes of 64B of @p data into @p parity8. */
    void rsParity(const std::uint8_t *data, std::uint8_t *parity8) const;

    /**
     * Per-chip deltas golden XOR @p other for the data chips, plus the
     * RS check bytes of that delta for the parity chip (RS is linear
     * too): @p delta receives chips() beats.
     */
    void chipDeltas(unsigned block, const std::uint8_t *other,
                    std::uint8_t *delta) const;

    /**
     * Apply an 8-byte delta to a chip beat and its VLEW code bits.
     * @param wire what the chip actually received and applied.
     * @param intended what the controller meant to send (golden
     *        tracking).
     */
    void applyChipDelta(unsigned chip, unsigned block,
                        const std::uint8_t *wire,
                        const std::uint8_t *intended);

    /** Transmit a beat across the faulty bus (with CRC retries). */
    void transmit(std::uint8_t *beat);

    /** Rebuild a dead data chip via RS erasure correction. */
    RecoveryOutcome rebuildDataChip(unsigned chip);
    /** Recompute the parity chip's beat of @p block from the data
     *  chips' stored beats (code bits left to the caller). */
    void recomputeParityBeat(unsigned block);

    /** Write an RS word's beats (data + parity) back to the store. */
    void storeRsWord(unsigned block, const RsWord &word);

    /** Zero a block everywhere and flag it as a reported UE. */
    void poisonBlock(unsigned block);

    ProposalParams geom;
    unsigned numBlocks;
    unsigned dataChips;
    unsigned blocksPerVlew;
    unsigned numVlews;

    /** blockRsCodec(). */
    const RsCodec &rsCodec;

    /** chips() x numVlews words, chip-major; the parity chip's beats
     *  hold the RS check bytes. */
    VlewStore media;
    std::vector<bool> disabled;
    /** Blocks crashRecovery() declared uncorrectable (reported UE). */
    std::vector<bool> poisoned;
    RecoveryCounters recCounters;
    /** Bus fault model. */
    double busBer = 0.0;
    bool busCrc = true;
    Rng busRng{1};
    std::uint64_t busRetries = 0;
};

} // namespace nvck

#endif // NVCK_CHIPKILL_PM_RANK_HH
