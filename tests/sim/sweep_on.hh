/**
 * @file
 * Test helper: run a list of points through ParallelSweep on a fixed
 * worker count, so a test can compare the driver's output for 1, 2
 * and 8 workers against a serial loop.
 */

#ifndef NVCK_TESTS_SIM_SWEEP_ON_HH
#define NVCK_TESTS_SIM_SWEEP_ON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel.hh"

namespace nvck {

/**
 * Declare @p points points, point i computing `fn(i, rng)` on its
 * substream of @p seed, run them on a fresh @p workers-worker pool and
 * return the values in declaration order.
 */
template <typename T, typename F>
std::vector<T>
sweepOn(unsigned workers, std::uint64_t seed, std::size_t points,
        const F &fn)
{
    ThreadPool pool(workers);
    SweepOptions opts;
    opts.pool = &pool;
    ParallelSweep<T> sweep(seed, opts);
    for (std::size_t i = 0; i < points; ++i)
        sweep.add("point " + std::to_string(i),
                  [&fn, i](Rng &rng) { return fn(i, rng); });
    std::vector<T> values;
    for (auto &out : sweep.run())
        values.push_back(std::move(out.value));
    return values;
}

} // namespace nvck

#endif // NVCK_TESTS_SIM_SWEEP_ON_HH
