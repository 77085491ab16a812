/**
 * @file
 * Allocator for the large per-System tables (cache directories, event
 * rings): whole pages mapped straight from the OS, outside malloc's
 * heap. A process builds and destroys thousands of Systems (every
 * campaign, every sweep point). Through malloc, each destroyed System
 * left holes that later small allocations split, so the next System's
 * 1.5 MiB LLC directory no longer fit and went to fresh heap pages: RSS
 * grew in 1.4 MiB steps. Released tables are instead kept in a bounded
 * process-wide stash and handed to the next request of the same size,
 * which is usually the next System's same table, so rebuilding a
 * System neither grows RSS nor page-faults its tables in again.
 */

#ifndef NVCK_COMMON_PAGE_ALLOC_HH
#define NVCK_COMMON_PAGE_ALLOC_HH

#include <cstddef>
#include <type_traits>

namespace nvck {

/**
 * @p bytes of writable memory: a stashed block of exactly that size
 * (old contents) or a fresh zero-filled mapping. Throws
 * std::bad_alloc when the OS refuses.
 */
void *pageAllocate(std::size_t bytes);

/** Return a pageAllocate() block: stashed for reuse, or unmapped once
 *  the stash is full. */
void pageDeallocate(void *p, std::size_t bytes) noexcept;

/** std::allocator replacement backed by pageAllocate(). */
template <typename T>
struct PageAllocator
{
    using value_type = T;
    using is_always_equal = std::true_type;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &)
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(pageAllocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        pageDeallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const
    {
        return true;
    }
};

} // namespace nvck

#endif // NVCK_COMMON_PAGE_ALLOC_HH
