#include "page_alloc.hh"

#include <sys/mman.h>

#include <mutex>
#include <new>

namespace nvck {

namespace {

/**
 * Released blocks awaiting reuse. Bounded in count and bytes: enough
 * for every table of a few Systems (one per sweep worker), so a
 * finished System's tables wait for the next one instead of going back
 * to the OS.
 */
struct Stash
{
    static constexpr std::size_t maxBlocks = 64;
    static constexpr std::size_t maxBytes = std::size_t{32} << 20;

    struct Block
    {
        void *p;
        std::size_t bytes;
    };

    std::mutex mu;
    Block blocks[maxBlocks];
    std::size_t count = 0;
    std::size_t bytes = 0;
};

Stash &
stash()
{
    // Never destroyed: tables released during static destruction must
    // still find it. The OS reclaims the mappings at exit.
    static Stash *s = new Stash;
    return *s;
}

} // namespace

void *
pageAllocate(std::size_t bytes)
{
    Stash &s = stash();
    {
        std::lock_guard<std::mutex> lock(s.mu);
        for (std::size_t i = s.count; i-- > 0;) {
            if (s.blocks[i].bytes == bytes) {
                void *p = s.blocks[i].p;
                s.blocks[i] = s.blocks[--s.count];
                s.bytes -= bytes;
                return p;
            }
        }
    }
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
pageDeallocate(void *p, std::size_t bytes) noexcept
{
    Stash &s = stash();
    {
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.count < Stash::maxBlocks &&
            s.bytes + bytes <= Stash::maxBytes) {
            s.blocks[s.count++] = {p, bytes};
            s.bytes += bytes;
            return;
        }
    }
    munmap(p, bytes);
}

} // namespace nvck
