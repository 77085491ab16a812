#include "hierarchy.hh"

#include "common/log.hh"

namespace nvck {

CacheHierarchy::CacheHierarchy(const CacheConfig &config, MemSink &sink)
    : cfg(config),
      memSink(sink),
      llc(config.llcBytes, config.llcWays)
{
    NVCK_ASSERT(cfg.cores >= 1, "need at least one core");
    l1s.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c)
        l1s.push_back(
            std::make_unique<SetAssocCache>(cfg.l1Bytes, cfg.l1Ways));
}

CacheLine &
CacheHierarchy::llcVictimExcluding(Addr addr, const CacheLine *keep)
{
    CacheLine &first = llc.victim(addr);
    if (&first != keep)
        return first;
    // Temporarily pin the protected line by bumping its LRU stamp and
    // re-selecting.
    llc.touch(first);
    CacheLine &second = llc.victim(addr);
    NVCK_ASSERT(&second != keep, "victim exclusion failed");
    return second;
}

void
CacheHierarchy::writeDirtyBlockToMemory(Addr addr, bool is_pm)
{
    bool omv_hit = false;
    if (is_pm && cfg.omvEnabled) {
        if (CacheLine *omv = llc.lookupOmv(addr)) {
            omv_hit = true;
            llc.invalidate(*omv);
            statistics.omvHits.inc();
        } else {
            statistics.omvMisses.inc();
        }
    }
    (is_pm ? statistics.pmWritebacks : statistics.dramWritebacks).inc();
    memSink.writeBlock(addr, is_pm, omv_hit);
}

void
CacheHierarchy::evictLlc(CacheLine &line)
{
    if (!line.valid)
        return;
    if (line.omv) {
        // An OMV equals the off-chip value; dropping it is free (the
        // next write to its block just misses the OMV lookup).
        llc.invalidate(line);
        return;
    }
    if (line.dirty)
        writeDirtyBlockToMemory(line.blockAddr(), line.isPm);
    llc.invalidate(line);
}

void
CacheHierarchy::dirtyWritebackToLlc(Addr addr, bool is_pm)
{
    CacheLine *line = llc.lookup(addr);
    if (line != nullptr) {
        if (cfg.omvEnabled && line->isPm && !line->dirty) {
            // Section V-D rule: the hit line still equals memory, so
            // keep it as the block's OMV and take another way for the
            // incoming dirty data.
            llc.makeOmv(*line);
            statistics.omvPreserved.inc();
            CacheLine &fresh = llcVictimExcluding(addr, line);
            evictLlc(fresh);
            llc.fill(fresh, addr, is_pm, /*dirty=*/true);
            return;
        }
        llc.setDirty(*line, true);
        llc.touch(*line);
        return;
    }
    // Non-inclusive hierarchy: the LLC may no longer hold the block.
    CacheLine &fresh = llcVictimExcluding(addr, nullptr);
    evictLlc(fresh);
    llc.fill(fresh, addr, is_pm, /*dirty=*/true);
}

HitLevel
CacheHierarchy::access(unsigned core, Addr addr, bool is_write,
                       bool is_pm)
{
    NVCK_ASSERT(core < cfg.cores, "bad core id");
    SetAssocCache &l1 = *l1s[core];

    if (CacheLine *line = l1.lookup(addr)) {
        if (is_write)
            l1.setDirty(*line, true);
        statistics.l1Hits.inc();
        return HitLevel::L1;
    }
    statistics.l1Misses.inc();

    CacheLine *llc_line = llc.lookup(addr);
    const HitLevel level =
        llc_line != nullptr ? HitLevel::LLC : HitLevel::Memory;
    if (llc_line != nullptr) {
        statistics.llcHits.inc();
    } else {
        statistics.llcMisses.inc();
        CacheLine &fresh = llcVictimExcluding(addr, nullptr);
        evictLlc(fresh);
        llc.fill(fresh, addr, is_pm, /*dirty=*/false);
    }

    // Allocate in L1 (write-allocate), pushing out its victim.
    CacheLine &victim = l1.victim(addr);
    if (victim.valid && victim.dirty)
        dirtyWritebackToLlc(victim.blockAddr(), victim.isPm);
    l1.fill(victim, addr, is_pm, /*dirty=*/is_write);
    return level;
}

bool
CacheHierarchy::clean(unsigned core, Addr addr, bool is_pm)
{
    NVCK_ASSERT(core < cfg.cores, "bad core id");
    SetAssocCache &l1 = *l1s[core];

    CacheLine *l1_line = l1.lookup(addr);
    if (l1_line != nullptr && l1_line->dirty) {
        // clwb retains a clean copy in L1 and pushes the data through
        // the LLC to memory.
        l1.setDirty(*l1_line, false);
        CacheLine *llc_line = llc.lookup(addr);
        bool omv_hit = false;
        if (is_pm && cfg.omvEnabled) {
            if (llc_line != nullptr && !llc_line->dirty) {
                omv_hit = true; // the clean (SAM) copy supplies the old value
            } else if (CacheLine *omv = llc.lookupOmv(addr)) {
                omv_hit = true;
                llc.invalidate(*omv);
            }
            (omv_hit ? statistics.omvHits : statistics.omvMisses).inc();
        }
        if (llc_line != nullptr) {
            // The clean updates the LLC copy with the new data; after
            // the memory write it again equals memory.
            llc.setDirty(*llc_line, false);
            llc.touch(*llc_line);
        }
        (is_pm ? statistics.pmWritebacks : statistics.dramWritebacks)
            .inc();
        memSink.writeBlock(addr / blockBytes * blockBytes, is_pm,
                           omv_hit);
        statistics.cleanOps.inc();
        return true;
    }

    CacheLine *llc_line = llc.lookup(addr);
    if (llc_line != nullptr && llc_line->dirty) {
        writeDirtyBlockToMemory(llc_line->blockAddr(), llc_line->isPm);
        llc.setDirty(*llc_line, false);
        llc.touch(*llc_line);
        statistics.cleanOps.inc();
        return true;
    }

    statistics.cleanNops.inc();
    return false;
}

double
CacheHierarchy::dirtyPmFraction() const
{
    std::size_t dirty_pm = llc.dirtyPmLines();
    std::size_t total = llc.lines();
    for (const auto &l1 : l1s) {
        dirty_pm += l1->dirtyPmLines();
        total += l1->lines();
    }
    return total ? static_cast<double>(dirty_pm) / total : 0.0;
}

double
CacheHierarchy::omvFraction() const
{
    return static_cast<double>(llc.omvLines()) /
           static_cast<double>(llc.lines());
}

VolatileDiscard
CacheHierarchy::discardVolatile()
{
    VolatileDiscard report;
    const auto drop = [&](SetAssocCache &cache) {
        cache.forEachMutable([&](CacheLine &line) {
            if (!line.valid)
                return;
            ++report.linesDropped;
            if (line.omv)
                ++report.omvLost;
            else if (line.dirty)
                (line.isPm ? report.dirtyPmLost
                           : report.dirtyDramLost)++;
            cache.invalidate(line);
        });
    };
    drop(llc);
    for (auto &l1 : l1s)
        drop(*l1);
    return report;
}

} // namespace nvck
