/**
 * @file
 * Trace capture and replay: the workflow for driving the simulator with
 * *real* application traces instead of the built-in generators. This
 * demo (1) captures a trace from a synthetic workload (stand-in for a
 * PIN/gem5-derived trace), (2) replays it through the full timing
 * system under both the baseline and the proposal, and (3) verifies
 * that replaying the same trace is exactly reproducible.
 */

#include <cstdio>
#include <string>

#include "sim/system.hh"
#include "workload/trace_file.hh"

using namespace nvck;

namespace {

/** Run one scheme over the trace and report IPC. */
double
replayRun(const std::string &path, const SchemeTiming &scheme)
{
    SystemConfig cfg =
        SystemConfig::make(PmTech::Pcm, scheme, "echo" /*unused*/);
    auto replay = std::make_unique<TraceReplayWorkload>(path, 8);
    System sys(cfg, std::move(replay));
    sys.start();
    sys.runUntil(nsToTicks(30000));
    for (unsigned c = 0; c < sys.coreCount(); ++c)
        sys.core(c).resetStats();
    sys.resetStats();
    const Tick measure = nsToTicks(100000);
    sys.runUntil(nsToTicks(30000) + measure);

    std::uint64_t insts = 0;
    for (unsigned c = 0; c < sys.coreCount(); ++c)
        insts += sys.core(c).instructions();
    const double cycles = ticksToNs(measure) * cfg.core.freqGhz;
    return static_cast<double>(insts) / cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    // One optional trace path; a flag-like argument is not a path.
    if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
        std::fprintf(stderr, "usage: %s [trace path]\n", argv[0]);
        return 2;
    }
    const std::string path =
        argc > 1 ? argv[1] : "/tmp/nvchipkill_demo.trace";

    // 1. Capture (in a real flow this file comes from your tracer).
    {
        AddressSpace space;
        auto source = makeWorkload("tpcc", space, 4, 7);
        TraceWriter::capture(*source, path, 4, 20000);
        std::printf("captured 4 x 20000 ops of 'tpcc' to %s\n",
                    path.c_str());
    }

    // 2. Replay through the timing system under both schemes.
    const double base =
        replayRun(path, bitErrorOnlyScheme());
    SchemeTiming prop = proposalScheme(runtimeRberFor(PmTech::Pcm));
    applyCFactor(prop, 0.33); // or run a characterization pass
    const double with_prop = replayRun(path, prop);
    std::printf("replay IPC: baseline %.4f, proposal %.4f "
                "(normalized %.4f)\n",
                base, with_prop, with_prop / base);

    // 3. Determinism: the same trace replays to the same cycle count.
    const double again = replayRun(path, bitErrorOnlyScheme());
    std::printf("replay reproducibility: %.6f vs %.6f -> %s\n", base,
                again, base == again ? "bit-identical" : "DIVERGED");
    std::remove(path.c_str());
    return base == again ? 0 : 1;
}
