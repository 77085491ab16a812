#include "parallel.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/env.hh"
#include "common/event.hh"

namespace nvck {

namespace {

[[noreturn]] void
sweepUsage(const char *prog, int status)
{
    std::FILE *os = status == 0 ? stdout : stderr;
    std::fprintf(os,
                 "usage: %s [options]\n"
                 "  --points N   run only the first N (post-filter) sweep"
                 " points\n"
                 "  --filter S   run only points whose label contains S\n"
                 "  --list       print the selected point labels and exit\n"
                 "  --timing     report per-point wall time on stderr\n"
                 "  --jobs N     worker count for the sweep (overrides"
                 " NVCK_JOBS)\n"
                 "  --seed N     override the sweep's base seed (replay"
                 " a logged run)\n"
                 "  --help       this message\n"
                 "\n"
                 "Point selection never changes a point's random stream:\n"
                 "substreams are keyed by declaration index, so a filtered\n"
                 "run reproduces the corresponding rows of the full table\n"
                 "byte for byte.\n",
                 prog);
    std::exit(status);
}

/**
 * Accept "--flag value" and "--flag=value"; returns nullptr when
 * @p arg is not @p flag, otherwise the value (advancing @p i for the
 * two-token form).
 */
const char *
flagValue(const char *flag, int argc, const char *const *argv, int &i)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0)
        return nullptr;
    if (argv[i][len] == '=')
        return argv[i] + len + 1;
    if (argv[i][len] != '\0')
        return nullptr;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
    }
    return argv[++i];
}

} // namespace

SweepOptions
SweepOptions::parse(int argc, const char *const *argv)
{
    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0)
            sweepUsage(argv[0], 0);
        else if (std::strcmp(argv[i], "--list") == 0)
            opts.list = true;
        else if (std::strcmp(argv[i], "--timing") == 0)
            opts.timing = true;
        else if (const char *v = flagValue("--points", argc, argv, i))
            opts.points = flagPositive(argv[0], "--points", v);
        else if (const char *f = flagValue("--filter", argc, argv, i))
            opts.filter = f;
        else if (const char *j = flagValue("--jobs", argc, argv, i))
            opts.jobs = static_cast<unsigned>(
                flagPositive(argv[0], "--jobs", j, ThreadPool::maxJobs));
        else if (const char *s = flagValue("--seed", argc, argv, i)) {
            opts.seed = flagPositive(argv[0], "--seed", s);
            opts.seedSet = true;
        }
        else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         argv[i]);
            sweepUsage(argv[0], 2);
        }
    }
    return opts;
}

namespace sweep_detail {

void
announceSelection(std::size_t selected, std::size_t declared,
                  const SweepOptions &opts, unsigned workers)
{
    // Quiet unless the CLI dropped points: stdout stays golden-clean
    // and full runs print nothing extra.
    if (selected == declared)
        return;
    std::cerr << "# sweep: running " << selected << " of " << declared
              << " points";
    if (!opts.filter.empty())
        std::cerr << " (filter '" << opts.filter << "')";
    if (opts.points)
        std::cerr << " (--points " << opts.points << ")";
    std::cerr << " on " << workers << " worker"
              << (workers == 1 ? "" : "s") << "\n";
}

void
printTimings(const std::vector<std::pair<std::string, double>> &times,
             unsigned workers)
{
    double total = 0.0;
    std::cerr << "# per-point wall time (" << workers << " worker"
              << (workers == 1 ? "" : "s") << "):\n";
    for (const auto &[label, ms] : times) {
        std::fprintf(stderr, "#   %-28s %10.2f ms\n", label.c_str(), ms);
        total += ms;
    }
    std::fprintf(stderr, "#   %-28s %10.2f ms\n", "total point time",
                 total);

    // Event-kernel roll-up across every retired queue (one per
    // simulated System): how hard the timing kernel worked for this
    // sweep, and whether the pools stayed flat (no steady-state heap
    // traffic). Queues still alive at this instant are not included.
    const EventKernelTotals ev = eventKernelTotals();
    if (ev.queues > 0) {
        std::fprintf(stderr,
                     "# event kernel: %llu queues, %llu events, "
                     "%llu overflow promotions, peak pending %llu, "
                     "pool high-water %llu\n",
                     static_cast<unsigned long long>(ev.queues),
                     static_cast<unsigned long long>(ev.executed),
                     static_cast<unsigned long long>(
                         ev.overflowPromotions),
                     static_cast<unsigned long long>(ev.maxPeakPending),
                     static_cast<unsigned long long>(
                         ev.maxPoolHighWater));
    }
}

void
printLabels(const std::vector<std::string> &labels)
{
    for (const auto &label : labels)
        std::printf("%s\n", label.c_str());
}

} // namespace sweep_detail

} // namespace nvck
