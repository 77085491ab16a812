/**
 * @file
 * Ablation study of the proposal's design choices (DESIGN.md index):
 *
 *  1. OMV caching in the LLC (Section V-D): turning it off forces an
 *     off-chip old-data fetch before every PM write.
 *  2. EUR coalescing (Section V-D): turning it off charges a code-bit
 *     write per data write (C = 1) in the iso-endurance inflation.
 *  3. The naive VLEW deployment (Section IV / Fig 5) with both
 *     optimizations absent and every errored read fetching the VLEW.
 *  4. Degraded-mode VLEW reconfiguration after chip retirement
 *     (Section V-E): correction fetch cost drops from ~36 to ~7 blocks.
 *
 * Each workload is one ParallelSweep point running its five system
 * configurations; the five runs inside one point stay sequential
 * because the ablations reuse the full proposal's measured C factor.
 */

#include <iostream>

#include "bench_common.hh"
#include "chipkill/degraded.hh"
#include "common/table.hh"
#include "sim/parallel.hh"

using namespace nvck;

namespace {

/** Normalized-performance columns for one workload. */
struct AblationRow
{
    double full = 0.0;
    double noOmv = 0.0;
    double noEur = 0.0;
    double naive = 0.0;
};

RunMetrics
runScheme(PmTech tech, const std::string &workload,
          const SchemeTiming &scheme, const RunControl &rc)
{
    return runOnce(SystemConfig::make(tech, scheme, workload), rc);
}

AblationRow
ablateOne(PmTech tech, const std::string &w, const RunControl &rc)
{
    const double rber = runtimeRberFor(tech);
    const auto base = runBaseline(tech, w, 1, rc);

    // Full proposal via the standard two-pass protocol.
    const auto full = runProposal(tech, w, 1, rc);

    // No OMV: every PM write fetches old data off-chip first.
    SchemeTiming no_omv = proposalScheme(rber);
    no_omv.omvEnabled = false;
    no_omv.fetchOldOnOmvMiss = false;
    no_omv.fetchOldAlways = true;
    applyCFactor(no_omv, full.cFactor);
    const auto no_omv_m = runScheme(tech, w, no_omv, rc);

    // No EUR: every data write also writes its 33B of code bits.
    SchemeTiming no_eur = proposalScheme(rber);
    no_eur.eurEnabled = false;
    applyCFactor(no_eur, 1.0);
    const auto no_eur_m = runScheme(tech, w, no_eur, rc);

    // Naive VLEW: no runtime RS reuse, no OMV, no EUR.
    SchemeTiming naive = naiveVlewScheme(rber);
    applyCFactor(naive, 1.0);
    const auto naive_m = runScheme(tech, w, naive, rc);

    AblationRow row;
    row.full = full.perf / base.perf;
    row.noOmv = no_omv_m.perf / base.perf;
    row.noEur = no_eur_m.perf / base.perf;
    row.naive = naive_m.perf / base.perf;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Ablation", "what each optimization of the proposal buys");

    const auto rc = benchRunControl();
    const PmTech tech = PmTech::Pcm;

    ParallelSweep<AblationRow> sweep(42, opts);
    for (const std::string w : {"echo", "btree", "hashmap"})
        sweep.add(w, [tech, w, rc] { return ablateOne(tech, w, rc); });

    Table t({"workload", "baseline", "full proposal", "no OMV caching",
             "no EUR (C=1)", "naive VLEW"});
    for (const auto &out : sweep.run())
        t.row()
            .cell(out.label)
            .cell(1.0, 4)
            .cell(out.value.full, 4)
            .cell(out.value.noOmv, 4)
            .cell(out.value.noEur, 4)
            .cell(out.value.naive, 4);
    t.print(std::cout);

    std::cout << "\nDegraded-mode reconfiguration (Section V-E):\n";
    DegradedRank degraded(256);
    const ProposalParams p;
    Table d({"mode", "VLEW span", "blocks fetched per correction"});
    d.row()
        .cell("healthy (per-chip VLEW)")
        .cell(std::to_string(p.blocksPerVlew()) + " blocks/chip")
        .cell(std::uint64_t{p.vlewFetchOverheadBlocks() + 1});
    d.row()
        .cell("degraded (striped VLEW)")
        .cell(std::to_string(degraded.blocksPerVlew()) +
              " blocks/rank")
        .cell(std::uint64_t{degraded.correctionFetchBlocks() + 1});
    d.print(std::cout);
    std::cout << "\nReconfiguration keeps VLEW length and strength —"
                 " no extra storage — while\ncutting the correction"
                 " fetch by ~5x for ranks that lost a chip.\n";
    return 0;
}
