/**
 * @file
 * The one owner of a rank's VLEW media (Section V-A/V-D).
 *
 * A VlewStore holds a byte array cut into fixed-size spans, one r-bit
 * BCH code word per span, golden (error-free, intended) copies of
 * both, and the stuck-cell map of the data bytes. It is the only code
 * that reads or writes those bits; the rank models (PmRank,
 * DegradedRank) keep their policy — RS tiers, poisoning, recovery —
 * and address the media through it:
 *
 *  - word w covers data bytes [w * spanBytes(), (w + 1) * spanBytes())
 *    and its code bits; the span is cut into beats of beatBytes(), and
 *    beat b is the flat index of a beat (word = b / beatsPerWord());
 *  - every code-bit update follows the paper's linearity: a data delta
 *    turns into the code delta f(delta) (applyDelta), so a write never
 *    re-reads the span;
 *  - one in-place word scrub (scrubWord) serves reads, patrol, spare
 *    copies and the batched whole-rank sweep (scrub.hh);
 *  - each word carries a verdict memo: what its last scrub proved
 *    (clean or uncorrectable), kept until a mutator touches the
 *    word's stored data, code or stuck bits. A word whose bits have
 *    not changed is never re-proven.
 *
 * The codec is shared, immutable and not part of the persistent image:
 * copies (snapshots) share it, and operator== ignores it. The verdict
 * memo is derived state: copies carry it with the bits it describes,
 * and operator== ignores it too.
 */

#ifndef NVCK_CHIPKILL_VLEW_STORE_HH
#define NVCK_CHIPKILL_VLEW_STORE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "ecc/bch.hh"

namespace nvck {

class Rng;

/** Outcome of one scrub word (a per-chip VLEW or striped VLEW). */
struct ScrubWordResult
{
    /** -1 uncorrectable, 0 clean (or skipped), else bits corrected. */
    int corrections = 0;
    /**
     * Bitmask of beats within the word's span whose *data* bits had
     * corrections applied (bit b = b-th beat of the span). Code-bit
     * corrections do not set mask bits.
     */
    std::uint64_t changedBlocks = 0;

    bool operator==(const ScrubWordResult &) const = default;
};

/** Data, code and golden bits of a rank's VLEW words. */
class VlewStore
{
  public:
    /** Parts of the media a mutation lands in. */
    enum Part : unsigned
    {
        Data = 1,   //!< the stored data bits
        Code = 2,   //!< the stored code bits
        Golden = 4, //!< the golden (intended) data and code bits
    };

    VlewStore() = default;

    /**
     * @param codec VLEW code; its k() must be a whole number of bytes.
     * @param words number of VLEW words (spans).
     * @param beat_bytes bytes per beat; must divide the span.
     */
    VlewStore(std::shared_ptr<const BchCodec> codec, std::size_t words,
              unsigned beat_bytes);

    std::size_t words() const { return numWords; }
    unsigned spanBytes() const { return spanLen; }
    unsigned beatBytes() const { return beatLen; }
    unsigned beatsPerWord() const { return spanLen / beatLen; }
    const BchCodec &codec() const { return *bch; }

    /** Stored (possibly erroneous) bytes of flat beat @p beat. */
    const std::uint8_t *
    beat(std::size_t beat) const
    {
        return &media[beat * beatLen];
    }

    /** Golden bytes of flat beat @p beat. */
    const std::uint8_t *
    goldenBeat(std::size_t beat) const
    {
        return &golden[beat * beatLen];
    }

    /** The stored codeword [code | data] of @p word, as read back. */
    BitVec codeword(std::size_t word) const;

    /** Stuck-cell mask / values over @p word's span. */
    const std::uint8_t *
    stuckMask(std::size_t word) const
    {
        return &stuckMaskBytes[word * spanLen];
    }

    const std::uint8_t *
    stuckValue(std::size_t word) const
    {
        return &stuckValBytes[word * spanLen];
    }

    /** True when the stored data and code equal the golden copies. */
    bool isPristine() const;

    /** Same geometry, data, code, golden copies and stuck cells. */
    bool operator==(const VlewStore &other) const;

    /**
     * XOR @p delta (beatBytes() bytes) into beat @p beat: Data lands
     * it in the stored bits (stuck cells re-asserted), Code applies
     * the linear code delta f(delta) to the stored code bits, Golden
     * tracks it as intent in the golden data and code.
     */
    void applyDelta(std::size_t beat, const std::uint8_t *delta,
                    unsigned landed);

    /**
     * Scrub @p word in place: one residue pass over [code | data]; a
     * nonzero residue is solved by the codec's one decode pipeline, the
     * error bits are flipped in place and stuck cells re-asserted. A
     * clean or uncorrectable verdict is memoized and returned without a
     * pass until the word's bits change; a corrected word is not, since
     * re-asserted stuck cells can leave it dirty. Words touch disjoint
     * storage, so distinct words may be scrubbed concurrently.
     */
    ScrubWordResult scrubWord(std::size_t word);

    /** Recompute @p word's code bits from its data: Code for the
     *  stored copy, Golden for the golden one. */
    void reencode(std::size_t word, unsigned parts = Code);

    /** Overwrite beat @p beat's Data and/or Golden bytes with
     *  @p bytes; code bits and stuck cells are left alone. */
    void setBeat(std::size_t beat, const std::uint8_t *bytes,
                 unsigned parts);

    /** Zero @p word's stored Data and/or Code bits, and/or its Golden
     *  data and code. */
    void zeroWord(std::size_t word, unsigned parts);

    /** XOR @p mask into stored byte @p byte of beat @p beat. */
    void corruptByte(std::size_t beat, unsigned byte, std::uint8_t mask);

    /**
     * Flip each stored bit with probability @p rber, walking all data
     * bits in byte order and then all code bits word by word.
     */
    std::uint64_t injectErrors(Rng &rng, double rber);

    /** Garble words [first, first + count): their data bytes in
     *  order, then each word's code bits. */
    void randomize(std::size_t first, std::size_t count, Rng &rng);

    /** Stick bit @p bit of data byte @p byte at @p value. */
    void setStuckBit(std::size_t byte, unsigned bit, bool value);

    /** Clear the stuck cells of words [first, first + count). */
    void clearStuck(std::size_t first, std::size_t count);

    /** Encode every golden word and copy the golden image into the
     *  media: the error-free state after initialization. */
    void loadGolden();

    /** The stored image becomes the ground truth (golden := media). */
    void adoptMedia();

  private:
    /** What the last scrub of a word proved about its stored bits. */
    enum class Verdict : std::uint8_t { Unknown, Clean, Uncorrectable };

    std::uint64_t *code(std::size_t word)
    {
        return &codeBits[word * codeStride];
    }

    /** Every mutator of data, code or stuck bits forgets the verdicts
     *  of the words [first, first + count) it touches. */
    void
    forget(std::size_t first, std::size_t count = 1)
    {
        std::fill_n(verdicts.begin() + static_cast<std::ptrdiff_t>(first),
                    count, Verdict::Unknown);
    }

    /** Re-assert stuck cells over data bytes [lo, hi). */
    void assertStuck(std::size_t lo, std::size_t hi);

    std::shared_ptr<const BchCodec> bch;
    std::size_t numWords = 0;
    unsigned spanLen = 0;
    unsigned beatLen = 0;
    /** 64-bit words per code word (r bits, tail bits kept zero). */
    unsigned codeStride = 0;

    std::vector<std::uint8_t> media;
    std::vector<std::uint8_t> golden;
    std::vector<std::uint64_t> codeBits;
    std::vector<std::uint64_t> goldenCode;
    /** Stuck-cell masks and values per data byte. */
    std::vector<std::uint8_t> stuckMaskBytes;
    std::vector<std::uint8_t> stuckValBytes;
    /** One byte per word, not packed bits: scrubs run concurrently. */
    std::vector<Verdict> verdicts;
};

} // namespace nvck

#endif // NVCK_CHIPKILL_VLEW_STORE_HH
