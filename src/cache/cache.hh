/**
 * @file
 * Metadata-only set-associative cache with LRU replacement. The timing
 * simulation tracks tags and state bits (dirty, PM, and the proposal's
 * SAM/OMV bits) but not data contents; data-path correctness is
 * validated separately by the bit-accurate ECC pipeline.
 */

#ifndef NVCK_CACHE_CACHE_HH
#define NVCK_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/page_alloc.hh"
#include "common/types.hh"

namespace nvck {

/** State of one cache line. */
struct CacheLine
{
    Addr blockAddr = 0;  //!< block-aligned address
    bool valid = false;
    bool dirty = false;
    bool isPm = false;   //!< maps to the persistent-memory rank
    /**
     * SameAsMem: the line's value equals off-chip memory (set on fill
     * and on clean; cleared by a dirty writeback into the line).
     * LLC-only semantics (Section V-D).
     */
    bool sam = false;
    /**
     * Old-Memory-Value: the line holds the pre-write value of a dirty
     * PM block and is invisible to normal lookups. LLC-only.
     */
    bool omv = false;
    std::uint64_t lruStamp = 0;
};

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

    /**
     * Iterate all lines (occupancy statistics). Statically dispatched:
     * the sweep visits every line of a multi-MB directory, so the
     * callback must inline rather than bounce through a std::function.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &line : store)
            fn(line);
    }

    /** Iterate all lines mutably (bulk invalidation sweeps). */
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
    std::size_t setIndex(Addr addr) const;
    CacheLine *setBase(Addr addr);

    std::size_t numSets;
    unsigned numWays;
    std::vector<CacheLine, PageAllocator<CacheLine>> store;
    std::uint64_t stampCounter = 0;
};

} // namespace nvck

#endif // NVCK_CACHE_CACHE_HH
