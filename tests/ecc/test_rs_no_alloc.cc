/**
 * @file
 * RsCodec::decode makes no heap allocation on any path. This binary
 * replaces the global operator new with a counting one (which is why
 * it is its own executable) and decodes, inside the counted window, a
 * clean word, a dead chip's word with no erasure hint (Uncorrectable),
 * the same chip as 8 erasures (Corrected) and t random symbol errors
 * (Corrected). Words, erasure lists and the codec are built before the
 * window opens.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hh"
#include "ecc/rs.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Kept out of line: inlined into a new/delete pair, std::free reads to
// GCC as freeing operator new's pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace nvck {
namespace {

/** Heap allocations made while @p op runs. */
template <typename F>
std::size_t
allocationsIn(F &&op)
{
    g_allocations.store(0);
    g_counting.store(true);
    op();
    g_counting.store(false);
    return g_allocations.load();
}

class RsNoAlloc : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::vector<GfElem> data(codec.k());
        for (auto &s : data)
            s = static_cast<GfElem>(rng.below(256));
        clean = codec.encode(data);
    }

    /** Decode a copy of @p word inside the counted window. */
    RsDecodeResult
    decodeCounted(const std::vector<GfElem> &word,
                  const std::vector<std::uint32_t> &erasures,
                  std::size_t &allocations)
    {
        std::vector<GfElem> copy = word;
        RsDecodeResult res;
        allocations =
            allocationsIn([&] { res = codec.decode(copy, erasures); });
        return res;
    }

    /** @p chip's eight symbols (its beat of the block) as erasures. */
    static std::vector<std::uint32_t>
    chipSymbols(unsigned chip)
    {
        std::vector<std::uint32_t> out;
        for (std::uint32_t s = 8 * chip; s < 8 * chip + 8; ++s)
            out.push_back(s);
        return out;
    }

    const RsCodec codec{64, 8};
    Rng rng{0xA110C};
    std::vector<GfElem> clean;
};

TEST_F(RsNoAlloc, CleanWord)
{
    std::size_t allocations = 0;
    const auto res = decodeCounted(clean, {}, allocations);
    EXPECT_EQ(res.status, DecodeStatus::Clean);
    EXPECT_EQ(allocations, 0u);
}

TEST_F(RsNoAlloc, BlindDeadChipIsUncorrectable)
{
    // Random beats on one data chip until the blind decode gives up, as
    // a runtime read's first RS pass does for most dead-chip words.
    const auto erased = chipSymbols(3);
    std::vector<GfElem> dead;
    for (int attempt = 0; attempt < 64; ++attempt) {
        dead = clean;
        for (const std::uint32_t s : erased)
            dead[s] = static_cast<GfElem>(rng.below(256));
        auto probe = dead;
        if (codec.decode(probe).status == DecodeStatus::Uncorrectable)
            break;
    }
    std::size_t allocations = 0;
    const auto res = decodeCounted(dead, {}, allocations);
    ASSERT_EQ(res.status, DecodeStatus::Uncorrectable);
    EXPECT_EQ(allocations, 0u);
}

TEST_F(RsNoAlloc, EightErasuresCorrected)
{
    const auto erased = chipSymbols(5);
    auto dead = clean;
    for (const std::uint32_t s : erased)
        dead[s] ^= 0x5A;
    std::size_t allocations = 0;
    const auto res = decodeCounted(dead, erased, allocations);
    ASSERT_EQ(res.status, DecodeStatus::Corrected);
    EXPECT_EQ(res.corrections, 8u);
    EXPECT_EQ(allocations, 0u);
}

TEST_F(RsNoAlloc, RandomErrorsCorrected)
{
    auto noisy = clean;
    for (unsigned e = 0; e < codec.t(); ++e)
        noisy[9 * e + 4] ^= static_cast<GfElem>(rng.below(255) + 1);
    std::size_t allocations = 0;
    const auto res = decodeCounted(noisy, {}, allocations);
    ASSERT_EQ(res.status, DecodeStatus::Corrected);
    EXPECT_EQ(res.corrections, codec.t());
    EXPECT_EQ(allocations, 0u);
}

} // namespace
} // namespace nvck
