#include "scrub.hh"

#include <algorithm>

#include "common/threadpool.hh"

namespace nvck {

std::vector<ScrubWordResult>
ScrubEngine::sweep(VlewStore &store, const std::vector<bool> &skip) const
{
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    const std::size_t words = store.words();
    std::vector<ScrubWordResult> out(words);
    // Each word touches only its own span/code storage and its own
    // outcome slot, so batches commute and any worker count produces
    // bit-identical results.
    pool.parallelFor((words + batchWords - 1) / batchWords,
                     [&](std::size_t batch) {
                         const std::size_t lo = batch * batchWords;
                         const std::size_t hi =
                             std::min(words, lo + batchWords);
                         for (std::size_t w = lo; w < hi; ++w)
                             if (skip.empty() || !skip[w])
                                 out[w] = store.scrubWord(w);
                     });
    return out;
}

} // namespace nvck
