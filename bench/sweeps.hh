/**
 * @file
 * The migrated figure sweeps, factored out of the bench mains so they
 * can run in two ways: as the standalone `bench_*` binaries (which
 * just print the banner, parse SweepOptions, and call one of these),
 * and in-process from the golden-output regression tests, which run
 * each sweep at reduced cost into a string stream and diff it against
 * the checked-in files under tests/golden/ for NVCK_JOBS=1 and
 * NVCK_JOBS=8.
 *
 * Every function declares its work as ParallelSweep points and only
 * formats tables afterwards; none of them may contain a serial
 * per-workload/per-point trial loop. Everything written to @p os must
 * be byte-identical for any worker count — wall-clock timing and
 * sweep-selection notes go to stderr via the driver, never to @p os.
 */

#ifndef NVCK_BENCH_SWEEPS_HH
#define NVCK_BENCH_SWEEPS_HH

#include <ostream>

#include "sim/parallel.hh"

namespace nvck {

/**
 * Cost knobs so the golden tests and smoke jobs can run the exact
 * same sweep shapes at a fraction of the full-figure budget. The
 * defaults reproduce the published bench output.
 */
struct BenchScale
{
    double time = 1.0;           //!< multiplies every RunControl window
    unsigned scrubBlocks = 512;  //!< boot-scrub rank capacity (blocks)
    unsigned faultBlocks = 1024; //!< fault-sweep rank capacity (blocks)
    int faultRounds = 4;         //!< inject/scrub rounds per RBER point
    unsigned wearWrites = 4000;  //!< hot writes per wear-leveling point
};

/** The scale the golden regression tests (and their files) use. */
BenchScale goldenScale();

/** Figure 3: BCH strengths of commercial Flash (analytic model). */
void fig03FlashEcc(std::ostream &os, const SweepOptions &opts);

/** Figure 4: storage cost vs VLEW codeword length (analytic model). */
void fig04StorageVsCodeword(std::ostream &os, const SweepOptions &opts);

/** Figure 10: dirty-PM and OMV share of the cache hierarchy, plus a
 *  scaled-cache section. */
void fig10DirtyPmOccupancy(std::ostream &os, const SweepOptions &opts,
                           const BenchScale &scale = BenchScale{});

/** Figure 14: off-chip access breakdown per workload. */
void fig14AccessBreakdown(std::ostream &os, const SweepOptions &opts,
                          const BenchScale &scale = BenchScale{});

/** Figure 15: C factor (coalesced code-bit writes per PM write). */
void fig15Cfactor(std::ostream &os, const SweepOptions &opts,
                  const BenchScale &scale = BenchScale{});

/** Figure 16: proposal performance vs baseline, ReRAM latencies. */
void fig16PerfReram(std::ostream &os, const SweepOptions &opts,
                    const BenchScale &scale = BenchScale{});

/** Figure 17: proposal performance vs baseline, PCM latencies. */
void fig17PerfPcm(std::ostream &os, const SweepOptions &opts,
                  const BenchScale &scale = BenchScale{});

/** Figure 18: OMV served-from-LLC rate, plus scaled-cache section. */
void fig18OmvHitRate(std::ostream &os, const SweepOptions &opts,
                     const BenchScale &scale = BenchScale{});

/** Ablation: what OMV caching, EUR coalescing and degraded-mode
 *  reconfiguration each buy. */
void ablationDesign(std::ostream &os, const SweepOptions &opts,
                    const BenchScale &scale = BenchScale{});

/** Section V-B: boot-scrub scenarios on the bit-accurate rank. */
void bootScrubCampaign(std::ostream &os, const SweepOptions &opts,
                       const BenchScale &scale = BenchScale{});

/** Section V-E: start-gap wear-leveling interval sweep. */
void wearLevelingCampaign(std::ostream &os, const SweepOptions &opts,
                          const BenchScale &scale = BenchScale{});

/** Fault sweep: read-path distribution vs RBER on the rank. */
void faultSweep(std::ostream &os, const SweepOptions &opts,
                const BenchScale &scale = BenchScale{});

/** Section IV: refresh interval vs RBER vs bandwidth, and the outage
 *  each technology tolerates (analytic model). */
void refreshTradeoff(std::ostream &os, const SweepOptions &opts);

/**
 * Figures 8/9 + Section V-C: runtime read paths on the bit-accurate
 * rank, then a runtime chip failure. Returns false when a sampled
 * block of the dead chip was not recovered by RS erasure correction.
 */
bool runtimeCorrection(std::ostream &os, const SweepOptions &opts);

} // namespace nvck

#endif // NVCK_BENCH_SWEEPS_HH
