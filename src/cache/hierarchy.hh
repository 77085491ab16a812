/**
 * @file
 * The simulated cache hierarchy: per-core private L1s and a shared LLC
 * implementing the proposal's SAM ("SameAsMem", read as a clean line)
 * and OMV ("Old Memory Value") tag bits (Section V-D). The hierarchy
 * is non-inclusive, like the gem5 classic caches the paper used —
 * which is exactly why some OMV lookups miss (the paper's barnes
 * discussion, Fig 18).
 *
 * Writebacks and cache-line cleans destined for persistent memory are
 * reported to a MemSink together with whether the old memory value was
 * served from the LLC; the system glue turns OMV misses into extra
 * old-data reads, as the paper's write path requires.
 */

#ifndef NVCK_CACHE_HIERARCHY_HH
#define NVCK_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace nvck {

/** Receiver of memory-bound write traffic produced by the hierarchy. */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /**
     * A dirty block leaves the hierarchy toward memory.
     * @param addr block address.
     * @param is_pm targets the persistent-memory rank.
     * @param omv_hit for PM blocks: the old memory value was found in
     *        the LLC, so the XOR-sum write needs no old-data fetch.
     */
    virtual void writeBlock(Addr addr, bool is_pm, bool omv_hit) = 0;
};

/** Hierarchy configuration (Table I defaults). */
struct CacheConfig
{
    unsigned cores = 4;
    std::size_t l1Bytes = 64 * 1024;
    unsigned l1Ways = 2;
    std::size_t llcBytes = 4 * 1024 * 1024;
    unsigned llcWays = 32;
    /** Enable the proposal's OMV preservation (off for baselines). */
    bool omvEnabled = true;
};

/** Where an access was satisfied. */
enum class HitLevel { L1, LLC, Memory };

/** What a power cut destroyed inside the (volatile) hierarchy. */
struct VolatileDiscard
{
    std::size_t linesDropped = 0; //!< valid lines invalidated
    /** Dirty PM blocks that never reached the media: the persistent
     *  image keeps their OLD values (the paper's crash consistency
     *  contract — caches are explicitly not in the ADR domain). */
    std::size_t dirtyPmLost = 0;
    std::size_t dirtyDramLost = 0;
    /** OMV lines lost; pending XOR writes can no longer be served the
     *  old value from the LLC after reboot. */
    std::size_t omvLost = 0;
};

/** Hierarchy statistics. */
struct CacheStats
{
    Counter l1Hits, l1Misses;
    Counter llcHits, llcMisses;
    Counter omvHits, omvMisses;   //!< PM writes: old value in LLC?
    Counter omvPreserved;          //!< OMV lines created
    Counter cleanOps, cleanNops;   //!< clwb executed / found nothing dirty
    Counter pmWritebacks, dramWritebacks;
};

/** The hierarchy. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheConfig &config, MemSink &sink);

    /**
     * Perform a load or store by core @p core. The line is installed
     * functionally on a miss; the caller is responsible for modelling
     * the memory read latency when the result is HitLevel::Memory.
     */
    HitLevel access(unsigned core, Addr addr, bool is_write, bool is_pm);

    /**
     * Cache-line writeback instruction (clwb): push the dirty copy of
     * @p addr (if any) to memory, retaining clean copies. Returns true
     * if a memory write was generated.
     */
    bool clean(unsigned core, Addr addr, bool is_pm);

    /**
     * Fraction of all hierarchy lines holding dirty PM blocks (Fig 10),
     * from the directories' tallies: O(caches), no line is walked.
     */
    double dirtyPmFraction() const;

    /** Fraction of LLC lines currently holding OMVs (tallied). */
    double omvFraction() const;

    /** OMV service rate for PM writes so far (Fig 18). */
    double
    omvHitRate() const
    {
        const auto hits = statistics.omvHits.value();
        const auto total = hits + statistics.omvMisses.value();
        return total ? static_cast<double>(hits) / total : 1.0;
    }

    /**
     * Power failure: every cache is volatile, so all contents — dirty
     * lines, clean lines, and the LLC's OMV copies — vanish without
     * writebacks. Returns a tally of what was lost.
     */
    VolatileDiscard discardVolatile();

    const CacheStats &stats() const { return statistics; }
    void resetStats() { statistics = CacheStats{}; }

  private:
    friend class CacheTestPeer;

    /** Handle a dirty L1 line landing in the LLC (rules 2 and 3). */
    void dirtyWritebackToLlc(Addr addr, bool is_pm);
    /** Evict @p line from the LLC (silent for clean/OMV lines). */
    void evictLlc(CacheLine &line);
    /** Write a dirty LLC-level block to memory, consuming its OMV. */
    void writeDirtyBlockToMemory(Addr addr, bool is_pm);
    /** Pick an LLC victim in addr's set, never @p keep. */
    CacheLine &llcVictimExcluding(Addr addr, const CacheLine *keep);

    CacheConfig cfg;
    MemSink &memSink;
    std::vector<std::unique_ptr<SetAssocCache>> l1s;
    SetAssocCache llc;
    CacheStats statistics;
};

} // namespace nvck

#endif // NVCK_CACHE_HIERARCHY_HH
