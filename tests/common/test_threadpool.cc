#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "common/threadpool.hh"

namespace nvck {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(8);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(64);
    pool.parallelFor(64, [&](std::size_t i) { ran[i] = caller; });
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    // A body that itself calls parallelFor must not deadlock; the
    // nested call degrades to serial execution on the same thread.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(16, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t j) {
            sum.fetch_add(j, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(sum.load(), 16u * (15u * 16u / 2));
}

TEST(ThreadPool, ManyConsecutiveBatches)
{
    // Back-to-back batches stress the epoch/straggler handoff the TSan
    // CI job watches.
    ThreadPool pool(8);
    for (int round = 0; round < 200; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(64, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), 64u * 65u / 2);
    }
}

TEST(ThreadPool, UnbalancedWorkStealing)
{
    // One index carries most of the work; stealing should still finish
    // and cover everything.
    ThreadPool pool(8);
    std::vector<std::uint64_t> out(256, 0);
    pool.parallelFor(256, [&](std::size_t i) {
        std::uint64_t iters = i == 0 ? 2000000 : 100;
        std::uint64_t acc = 1;
        for (std::uint64_t k = 0; k < iters; ++k)
            acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        out[i] = acc | 1;
    });
    for (const auto v : out)
        EXPECT_NE(v, 0u);
}

TEST(ThreadPool, ZeroAndOneCounts)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, DefaultJobCountHonorsEnv)
{
    ::setenv("NVCK_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobCount(), 3u);
    ::unsetenv("NVCK_JOBS");
    EXPECT_GE(ThreadPool::defaultJobCount(), 1u);
    // Malformed values no longer fall back silently: common/env.hh
    // rejects them with a one-line error and exit(2), covered by the
    // EnvParse death tests.
}

} // namespace
} // namespace nvck
