/**
 * @file
 * Table I: microarchitectural parameters of the evaluated system, as
 * instantiated by this repository's configuration defaults.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "mem/timing.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    banner("Table I", "microarchitectural parameters");

    const SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, proposalScheme(7e-5), "echo");

    Table t({"component", "parameter"});
    t.row().cell("Core").cell(
        std::to_string(cfg.cores) + " cores, " +
        Table::formatNumber(cfg.core.freqGhz, 2) + " GHz, " +
        std::to_string(cfg.core.issueWidth) +
        "-issue OOO (interval model), 64B cacheline");
    t.row().cell("L1 d-cache").cell(
        std::to_string(cfg.cache.l1Ways) + "-way, " +
        std::to_string(cfg.cache.l1Bytes / 1024) + "KB, 1 cycle");
    t.row().cell("Shared LLC").cell(
        std::to_string(cfg.cache.llcWays) + "-way, " +
        std::to_string(cfg.cache.llcBytes / 1024 / 1024) +
        "MB, 14 cycles, SAM/OMV tag bits");
    t.row().cell("Memory controller")
        .cell(std::to_string(cfg.mem.readQueueCap) + " read buffer, " +
              std::to_string(cfg.mem.writeQueueCap) +
              " write buffer/channel, closed page after 50ns idle,"
              " FR-FCFS");
    t.row().cell("Memory system")
        .cell("one 2400MT/s channel: 1 DRAM rank + 1 persistent-memory"
              " rank, " +
              std::to_string(cfg.mem.pm.banks) + " banks/rank");
    t.row().cell("NVRAM (ReRAM)").cell(
        "tRCD " + Table::formatNumber(ticksToNs(reramTiming().tRCD), 3) +
        "ns, tWR " + Table::formatNumber(ticksToNs(reramTiming().tWR), 3) +
        "ns");
    t.row().cell("NVRAM (PCM)").cell(
        "tRCD " + Table::formatNumber(ticksToNs(pcmTiming().tRCD), 3) +
        "ns, tWR " + Table::formatNumber(ticksToNs(pcmTiming().tWR), 3) +
        "ns");
    t.print(std::cout);
    return 0;
}
