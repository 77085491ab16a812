#include "threadpool.hh"

#include <cstdlib>
#include <string>

#include "common/env.hh"

namespace nvck {

namespace {

/** Set while a thread is executing batch chunks; nested parallelFor
 *  calls from such a thread run inline to avoid deadlocking on the
 *  batch-serialization lock. */
thread_local bool inside_batch = false;

} // namespace

unsigned
ThreadPool::defaultJobCount()
{
    // Strict parse: a malformed NVCK_JOBS aborts with a one-line error
    // instead of silently running at the hardware default.
    if (const auto jobs = envPositive("NVCK_JOBS", maxJobs))
        return static_cast<unsigned>(*jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobCount();
    slots.reserve(jobs);
    for (unsigned s = 0; s < jobs; ++s)
        slots.push_back(std::make_unique<Slot>());
    // Slot 0 belongs to the submitting thread.
    threads.reserve(jobs - 1);
    for (unsigned s = 1; s < jobs; ++s)
        threads.emplace_back([this, s] { workerLoop(s); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    wake.notify_all();
    for (auto &t : threads)
        t.join();
}

void
ThreadPool::workerLoop(unsigned slot)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu);
            wake.wait(lk, [&] { return stopping || epoch != seen; });
            if (stopping)
                return;
            seen = epoch;
        }
        runSlot(slot);
    }
}

bool
ThreadPool::popChunk(unsigned slot, Chunk &out)
{
    // Own deque first (front), then steal from the back of the others.
    {
        Slot &own = *slots[slot];
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.queue.empty()) {
            out = own.queue.front();
            own.queue.pop_front();
            return true;
        }
    }
    for (std::size_t i = 1; i < slots.size(); ++i) {
        Slot &victim = *slots[(slot + i) % slots.size()];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.queue.empty()) {
            out = victim.queue.back();
            victim.queue.pop_back();
            return true;
        }
    }
    return false;
}

void
ThreadPool::runSlot(unsigned slot)
{
    inside_batch = true;
    Chunk c;
    while (popChunk(slot, c)) {
        // `body` is written before any chunk is enqueued and the batch
        // is drained before the next one starts, so a successful pop
        // happens-after the pointer store (via the deque mutexes).
        const auto *fn = body;
        for (std::size_t i = c.begin; i < c.end; ++i)
            (*fn)(i);
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lk(mu);
            done.notify_all();
        }
    }
    inside_batch = false;
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (slots.size() <= 1 || count == 1 || inside_batch) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> submit(submitMu);

    // Chunk for stealable granularity: ~4 chunks per worker keeps the
    // steal rate low while still smoothing imbalance. Chunking never
    // affects results — each index writes only its own slot.
    const std::size_t target = slots.size() * 4;
    const std::size_t chunk_size = count / target ? count / target : 1;
    const std::size_t num_chunks = (count + chunk_size - 1) / chunk_size;
    // Publish the batch state before any chunk becomes visible: a
    // straggler worker still scanning deques from the previous epoch
    // may pop (and finish) a chunk the moment it is enqueued.
    body = &fn;
    pending.store(num_chunks, std::memory_order_release);
    for (std::size_t begin = 0, s = 0; begin < count; ++s) {
        const std::size_t end =
            begin + chunk_size < count ? begin + chunk_size : count;
        Slot &slot = *slots[s % slots.size()];
        std::lock_guard<std::mutex> lk(slot.mu);
        slot.queue.push_back(Chunk{begin, end});
        begin = end;
    }

    {
        std::lock_guard<std::mutex> lk(mu);
        ++epoch;
    }
    wake.notify_all();

    // The submitter works the batch too (slot 0), then waits for any
    // chunk still in flight on a worker.
    runSlot(0);
    std::unique_lock<std::mutex> lk(mu);
    done.wait(lk, [&] {
        return pending.load(std::memory_order_acquire) == 0;
    });
}

} // namespace nvck
