/**
 * @file
 * Metadata-only set-associative cache with LRU replacement. The timing
 * simulation tracks tags and state bits (dirty, PM, and the proposal's
 * OMV bit) but not data contents; data-path correctness is validated
 * separately by the bit-accurate ECC pipeline.
 *
 * The directory keeps its occupancy as data: every write of a line's
 * valid/dirty/isPm/omv flags goes through SetAssocCache (fill,
 * invalidate, setDirty, makeOmv), which maintains the dirty-PM and OMV
 * line counts that Fig 10's sampler reads, so a sample walks no line.
 */

#ifndef NVCK_CACHE_CACHE_HH
#define NVCK_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/page_alloc.hh"
#include "common/types.hh"

namespace nvck {

/**
 * State of one cache line. Callers read the flags freely but change
 * valid/dirty/isPm/omv only through SetAssocCache, which tallies them.
 * The block number and the four flags share one 64-bit word, so a line
 * takes 16 bytes (the 4 MB LLC's directory is 1 MiB).
 */
struct CacheLine
{
    std::uint64_t block : 58 = 0; //!< block number: address / blockBytes
    bool valid : 1 = false;
    /**
     * The line differs from off-chip memory. The proposal's SAM
     * (SameAsMem) bit is !dirty: a valid non-OMV LLC line equals
     * memory iff it is clean (Section V-D).
     */
    bool dirty : 1 = false;
    bool isPm : 1 = false;   //!< maps to the persistent-memory rank
    /**
     * Old-Memory-Value: the line holds the pre-write value of a dirty
     * PM block and is invisible to normal lookups. LLC-only.
     */
    bool omv : 1 = false;
    std::uint64_t lruStamp = 0;

    /** Block-aligned address. */
    Addr blockAddr() const { return Addr{block} * blockBytes; }
};
static_assert(sizeof(CacheLine) == 16, "CacheLine packs into 16 bytes");

/** A set-associative, write-back, LRU cache directory. */
class SetAssocCache
{
  public:
    SetAssocCache(std::size_t size_bytes, unsigned ways);

    std::size_t sets() const { return numSets; }
    unsigned ways() const { return numWays; }
    std::size_t lines() const { return numSets * numWays; }

    /**
     * Find the non-OMV line holding @p addr; nullptr on miss. Updates
     * LRU on hit.
     */
    CacheLine *lookup(Addr addr);

    /** Find an OMV line holding @p addr (LLC use); does not touch LRU. */
    CacheLine *lookupOmv(Addr addr);

    /**
     * Choose a victim way in @p addr's set: an invalid line if any,
     * else the LRU line (OMV lines compete equally). The returned line
     * is NOT reset; the caller inspects it for writeback first.
     */
    CacheLine &victim(Addr addr);

    /** Install @p addr into @p line (which must belong to its set). */
    void fill(CacheLine &line, Addr addr, bool is_pm, bool dirty);

    /** Invalidate a line. */
    void invalidate(CacheLine &line);

    /** Set or clear a valid line's dirty bit. */
    void setDirty(CacheLine &line, bool dirty);

    /** Turn a valid line into its block's OMV copy: it stops
     *  answering lookup(). */
    void makeOmv(CacheLine &line);

    /** Valid lines that are dirty and hold a PM block (Fig 10). */
    std::size_t dirtyPmLines() const { return dirtyPm; }

    /** Valid OMV lines. */
    std::size_t omvLines() const { return omvCount; }

    /**
     * Iterate all lines mutably (the power-cut discard, which must
     * visit every line anyway).
     */
    template <typename Fn>
    void
    forEachMutable(Fn &&fn)
    {
        for (auto &line : store)
            fn(line);
    }

    /** Bump a line's LRU stamp. */
    void touch(CacheLine &line) { line.lruStamp = ++stampCounter; }

  private:
    friend class CacheTestPeer;

    std::size_t setIndex(Addr addr) const;
    CacheLine *setBase(Addr addr);
    /** Drop @p line's contribution to the tallies before it changes. */
    void untally(const CacheLine &line);
    /** Add @p line's contribution to the tallies after it changed. */
    void tally(const CacheLine &line);

    std::size_t numSets;
    unsigned numWays;
    std::vector<CacheLine, PageAllocator<CacheLine>> store;
    std::uint64_t stampCounter = 0;
    std::size_t dirtyPm = 0;  //!< valid && dirty && isPm lines
    std::size_t omvCount = 0; //!< valid && omv lines
};

} // namespace nvck

#endif // NVCK_CACHE_CACHE_HH
