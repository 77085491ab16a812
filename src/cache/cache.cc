#include "cache.hh"

#include "common/log.hh"

namespace nvck {

SetAssocCache::SetAssocCache(std::size_t size_bytes, unsigned ways)
    : numSets(size_bytes / blockBytes / ways),
      numWays(ways),
      store(numSets * ways)
{
    NVCK_ASSERT(numSets >= 1, "cache smaller than one set");
    NVCK_ASSERT((numSets & (numSets - 1)) == 0,
                "set count must be a power of two");
}

std::size_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr / blockBytes) & (numSets - 1);
}

CacheLine *
SetAssocCache::setBase(Addr addr)
{
    return &store[setIndex(addr) * numWays];
}

void
SetAssocCache::untally(const CacheLine &line)
{
    dirtyPm -= line.valid && line.dirty && line.isPm;
    omvCount -= line.valid && line.omv;
}

void
SetAssocCache::tally(const CacheLine &line)
{
    dirtyPm += line.valid && line.dirty && line.isPm;
    omvCount += line.valid && line.omv;
}

CacheLine *
SetAssocCache::lookup(Addr addr)
{
    const Addr block = addr / blockBytes;
    CacheLine *base = setBase(addr);
    for (unsigned w = 0; w < numWays; ++w) {
        CacheLine &line = base[w];
        if (line.valid && !line.omv && line.block == block) {
            touch(line);
            return &line;
        }
    }
    return nullptr;
}

CacheLine *
SetAssocCache::lookupOmv(Addr addr)
{
    const Addr block = addr / blockBytes;
    CacheLine *base = setBase(addr);
    for (unsigned w = 0; w < numWays; ++w) {
        CacheLine &line = base[w];
        if (line.valid && line.omv && line.block == block)
            return &line;
    }
    return nullptr;
}

CacheLine &
SetAssocCache::victim(Addr addr)
{
    CacheLine *base = setBase(addr);
    CacheLine *lru = &base[0];
    for (unsigned w = 0; w < numWays; ++w) {
        CacheLine &line = base[w];
        if (!line.valid)
            return line;
        if (line.lruStamp < lru->lruStamp)
            lru = &line;
    }
    return *lru;
}

void
SetAssocCache::fill(CacheLine &line, Addr addr, bool is_pm, bool dirty)
{
    untally(line);
    line.block = addr / blockBytes;
    line.valid = true;
    line.dirty = dirty;
    line.isPm = is_pm;
    line.omv = false;
    tally(line);
    touch(line);
}

void
SetAssocCache::invalidate(CacheLine &line)
{
    untally(line);
    line = CacheLine{};
}

void
SetAssocCache::setDirty(CacheLine &line, bool dirty)
{
    untally(line);
    line.dirty = dirty;
    tally(line);
}

void
SetAssocCache::makeOmv(CacheLine &line)
{
    untally(line);
    line.omv = true;
    tally(line);
}

} // namespace nvck
