/**
 * @file
 * The one sweep driver: every bench and campaign that fans independent
 * work out — simulated systems, Monte-Carlo trial chunks, analytic
 * model points — declares it as ParallelSweep points. The driver runs
 * them on the work-stealing thread pool (common/threadpool.hh) and
 * collects results in declaration order, so every output table is
 * byte-identical to a serial run. The only other fan-out is
 * ScrubEngine's batched word scrub inside one store.
 *
 * Determinism contract: each point owns its state (its System, its
 * rank) and draws randomness only from its own Rng substream (or from
 * a pure function of its inputs); no mutable state is shared across
 * points, and callers merge outcomes after run() in declaration order.
 * NVCK_JOBS=1 opts out of threading entirely and must reproduce the
 * same bytes.
 *
 * The driver also owns the NVCK_JOBS plumbing, per-point wall-clock
 * timing, and the --points/--filter CLI (SweepOptions::parse) so any
 * individual sweep point can be re-run in isolation with the exact
 * same random stream it would get in a full run.
 */

#ifndef NVCK_SIM_PARALLEL_HH
#define NVCK_SIM_PARALLEL_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/threadpool.hh"

namespace nvck {

/**
 * Options shared by every sweep-driven bench. parse() understands:
 *
 *   --points N    run only the first N (post-filter) points
 *   --filter S    run only points whose label contains substring S
 *   --list        print the selected labels to stdout and run nothing
 *                 (a bench main also mutes its tables: see
 *                 benchSweepOptions in bench/bench_common.hh)
 *   --timing      report per-point wall time on stderr after the run
 *   --jobs N      worker count for this sweep (overrides NVCK_JOBS)
 *   --seed N      override the sweep's base seed (verbatim replay of
 *                 a CI run that logged its seed)
 *
 * Selection never changes a point's random stream: substreams are
 * keyed by declaration index, so `--filter hashmap` reproduces the
 * hashmap row of the full table byte for byte.
 */
struct SweepOptions
{
    std::size_t points = 0;     //!< 0 = every (post-filter) point
    std::string filter;         //!< substring match on point labels
    bool list = false;          //!< print labels instead of running
    bool timing = false;        //!< per-point wall time on stderr
    unsigned jobs = 0;          //!< 0 = NVCK_JOBS / hardware default
    ThreadPool *pool = nullptr; //!< tests inject fixed-size pools
    std::uint64_t seed = 0;     //!< --seed value (valid when seedSet)
    bool seedSet = false;       //!< --seed was given on the CLI

    /**
     * Parse bench argv; prints usage and exits on --help or an
     * unknown flag, so bench main() can call it unconditionally.
     */
    static SweepOptions parse(int argc, const char *const *argv);
};

/** One completed sweep point, in submission order. */
template <typename T>
struct SweepOutcome
{
    std::string label;  //!< the label the point was declared with
    std::size_t index;  //!< declaration index == Rng substream index
    T value;            //!< what the point's closure returned
    double millis = 0;  //!< wall time of this point's closure
};

// Non-template plumbing shared by every ParallelSweep<T> (parallel.cc).
namespace sweep_detail {

/** Stderr note when --points/--filter dropped part of the sweep. */
void announceSelection(std::size_t selected, std::size_t declared,
                       const SweepOptions &opts, unsigned workers);

/** Stderr per-point timing report (submission order). */
void printTimings(const std::vector<std::pair<std::string, double>> &t,
                  unsigned workers);

/** Stdout label listing for --list, written past std::cout, which a
 *  bench main mutes under --list. */
void printLabels(const std::vector<std::string> &labels);

} // namespace sweep_detail

/**
 * The shared sweep driver. Usage:
 *
 *   ParallelSweep<Row> sweep(seed, opts);
 *   for (const auto &w : workloads)
 *       sweep.add(w, [&, w](Rng &rng) { return measure(w, rng); });
 *   for (const auto &out : sweep.run())
 *       table.row().cell(out.label).cell(out.value...);
 *
 * Each point runs as one work item on the thread pool; results come
 * back in declaration order regardless of worker count. Point i's Rng
 * is substream i of the sweep seed — a pure function of (seed, i) —
 * so the same point sees the same stream whether the sweep runs
 * serially, on 8 workers, or alone under --filter. Closures that take
 * no Rng (analytic models) are accepted too.
 */
template <typename T>
class ParallelSweep
{
  public:
    /** @p seed is the sweep's default; --seed on the CLI wins. */
    explicit ParallelSweep(std::uint64_t seed = 0,
                           SweepOptions opts = SweepOptions{})
        : baseSeed(opts.seedSet ? opts.seed : seed),
          opts_(std::move(opts))
    {
    }

    /** Declare the next point; fn is T(Rng &) or plain T(). */
    template <typename F>
    ParallelSweep &
    add(std::string label, F &&fn)
    {
        if constexpr (std::is_invocable_r_v<T, F &, Rng &>) {
            items.push_back({std::move(label),
                             std::function<T(Rng &)>(std::forward<F>(fn))});
        } else {
            static_assert(std::is_invocable_r_v<T, F &>,
                          "sweep point must be callable as T(Rng&) or T()");
            items.push_back(
                {std::move(label),
                 [f = std::forward<F>(fn)](Rng &) mutable { return f(); }});
        }
        return *this;
    }

    /** Number of declared points. */
    std::size_t size() const { return items.size(); }

    /**
     * Run the selected points across the pool and return their
     * outcomes in declaration order. Under --list, prints the selected
     * labels and returns nothing.
     */
    std::vector<SweepOutcome<T>>
    run()
    {
        std::vector<std::size_t> selected;
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!opts_.filter.empty() &&
                items[i].label.find(opts_.filter) == std::string::npos)
                continue;
            selected.push_back(i);
            if (opts_.points && selected.size() >= opts_.points)
                break;
        }

        if (opts_.list) {
            std::vector<std::string> labels;
            for (std::size_t i : selected)
                labels.push_back(items[i].label);
            sweep_detail::printLabels(labels);
            return {};
        }

        // --jobs builds a sweep-private pool; otherwise an injected
        // pool (tests) or the NVCK_JOBS-sized global one.
        std::unique_ptr<ThreadPool> owned;
        ThreadPool *pool = opts_.pool;
        if (!pool && opts_.jobs)
            pool = (owned = std::make_unique<ThreadPool>(opts_.jobs)).get();
        if (!pool)
            pool = &ThreadPool::global();

        sweep_detail::announceSelection(selected.size(), items.size(),
                                        opts_, pool->workers());

        const Rng base(baseSeed);
        std::vector<SweepOutcome<T>> out(selected.size());
        pool->parallelFor(selected.size(), [&](std::size_t s) {
            const std::size_t i = selected[s];
            Rng rng = base.substream(i);
            const auto t0 = std::chrono::steady_clock::now();
            T value = items[i].fn(rng);
            const auto t1 = std::chrono::steady_clock::now();
            out[s].label = items[i].label;
            out[s].index = i;
            out[s].value = std::move(value);
            out[s].millis =
                std::chrono::duration<double, std::milli>(t1 - t0).count();
        });

        if (opts_.timing) {
            std::vector<std::pair<std::string, double>> times;
            times.reserve(out.size());
            for (const auto &o : out)
                times.emplace_back(o.label, o.millis);
            sweep_detail::printTimings(times, pool->workers());
        }
        return out;
    }

  private:
    struct Item
    {
        std::string label;
        std::function<T(Rng &)> fn;
    };

    std::uint64_t baseSeed;
    SweepOptions opts_;
    std::vector<Item> items;
};

} // namespace nvck

#endif // NVCK_SIM_PARALLEL_HH
