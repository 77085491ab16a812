/**
 * @file
 * Table I configuration defaults: 4 cores at 3GHz, 4-issue; 64KB 2-way
 * L1s; 4MB 32-way shared LLC (14 cycles); one 2400MT/s channel with one
 * DRAM rank and one persistent-memory rank, 16 banks per rank; 128-entry
 * read/write queues, FR-FCFS, closed-page-after-50ns-idle.
 */

#ifndef NVCK_SIM_CONFIGS_HH
#define NVCK_SIM_CONFIGS_HH

#include <string>

#include "cache/hierarchy.hh"
#include "chipkill/schemes.hh"
#include "cpu/core.hh"
#include "mem/controller.hh"
#include "workload/workload.hh"

namespace nvck {

/** Which NVRAM technology's latencies the PM rank models. */
enum class PmTech { Reram, Pcm };

/** Full system configuration. */
struct SystemConfig
{
    unsigned cores = 4;
    CoreConfig core;
    CacheConfig cache;
    MemControllerConfig mem;
    SchemeTiming scheme;
    AddressSpace space;
    std::string workload = "echo";
    std::uint64_t seed = 1;
    /** Calibration hook: override the profile's gapMean (0 = keep). */
    unsigned gapOverride = 0;

    /** Table I defaults with the given PM technology and scheme. */
    static SystemConfig make(PmTech tech, const SchemeTiming &scheme,
                             const std::string &workload,
                             std::uint64_t seed = 1);
};

/** Runtime RBER used for scheme behaviour under each technology. */
double runtimeRberFor(PmTech tech);

/** Human-readable technology name. */
std::string pmTechName(PmTech tech);

} // namespace nvck

#endif // NVCK_SIM_CONFIGS_HH
