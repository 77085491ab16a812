/**
 * @file
 * Work-stealing thread pool used by the parallel experiment engine.
 *
 * The pool executes ordered parallel-for batches: `parallelFor(n, body)`
 * runs `body(i)` for every index in [0, n) across the workers and blocks
 * until all indices completed. Indices are pre-partitioned into chunks
 * that are dealt round-robin to per-worker deques; an idle worker first
 * drains its own deque, then steals chunks from the other workers, so
 * load imbalance (e.g. one slow SystemConfig among many fast ones) never
 * idles a core. The *submitting* thread participates as worker 0, so a
 * pool of J jobs spawns J-1 threads.
 *
 * Determinism contract: the pool itself imposes no ordering on side
 * effects, so callers must make each index write only its own slot
 * (results[i]) and derive any randomness from the index, never from
 * shared mutable state. Under that contract results are byte-identical
 * for any worker count, including the serial NVCK_JOBS=1 path.
 */

#ifndef NVCK_COMMON_THREADPOOL_HH
#define NVCK_COMMON_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nvck {

class ThreadPool
{
  public:
    /**
     * @param jobs Worker count including the submitting thread;
     *        0 means defaultJobCount(). A pool of 1 runs every batch
     *        inline on the caller with no threads spawned.
     */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count, including the submitting thread. */
    unsigned workers() const { return static_cast<unsigned>(slots.size()); }

    /**
     * Run @p body for every index in [0, count); blocks until done.
     * Safe to call from multiple threads (batches are serialized) and
     * reentrantly from inside a batch (nested calls run inline).
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Process-wide pool sized by defaultJobCount(). Experiment code
     * funnels through this instance so NVCK_JOBS controls everything.
     */
    static ThreadPool &global();

    /** Largest worker count NVCK_JOBS or a bench's --jobs accepts. */
    static constexpr unsigned maxJobs = 1024;

    /**
     * NVCK_JOBS environment override if set to a positive integer,
     * otherwise std::thread::hardware_concurrency() (minimum 1).
     */
    static unsigned defaultJobCount();

  private:
    /** A contiguous index range awaiting execution. */
    struct Chunk
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    /** Per-worker chunk deque; owner pops the front, thieves the back. */
    struct Slot
    {
        std::mutex mu;
        std::deque<Chunk> queue;
    };

    void workerLoop(unsigned slot);
    /** Drain own deque then steal until the live batch has no chunks. */
    void runSlot(unsigned slot);
    bool popChunk(unsigned slot, Chunk &out);

    std::vector<std::unique_ptr<Slot>> slots;
    std::vector<std::thread> threads;

    std::mutex mu;                 //!< guards epoch / stopping / wakeups
    std::condition_variable wake;  //!< workers wait for a new epoch
    std::condition_variable done;  //!< submitter waits for pending == 0
    std::uint64_t epoch = 0;
    bool stopping = false;

    std::mutex submitMu;           //!< serializes concurrent batches
    std::atomic<std::size_t> pending{0};
    const std::function<void(std::size_t)> *body = nullptr;
};

} // namespace nvck

#endif // NVCK_COMMON_THREADPOOL_HH
