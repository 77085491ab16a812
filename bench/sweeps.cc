#include "sweeps.hh"

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "chipkill/schemes.hh"
#include "chipkill/wear.hh"
#include "common/table.hh"
#include "reliability/error_model.hh"
#include "reliability/sdc_model.hh"
#include "reliability/storage_model.hh"
#include "reliability/ue_model.hh"
#include "workload/profiles.hh"

namespace nvck {

BenchScale
goldenScale()
{
    // Small enough that the full golden suite (every sweep x two
    // worker counts) stays in unit-test territory even under TSan,
    // large enough that every read path / scrub branch still fires.
    BenchScale s;
    s.time = 0.25;
    s.scrubBlocks = 128;
    s.faultBlocks = 256;
    s.faultRounds = 2;
    s.wearWrites = 800;
    return s;
}

void
fig04StorageVsCodeword(std::ostream &os, const SweepOptions &opts)
{
    StorageTargets in;
    in.rber = rber::bootTarget;
    in.ueTarget = rber::ueTargetPerBlock;

    const std::vector<unsigned> sizes = {8,  16,  32,  64,
                                         128, 256, 512, 1024};
    ParallelSweep<StorageSolution> sweep(4, opts);
    for (unsigned bytes : sizes)
        sweep.add(std::to_string(bytes) + "B",
                  [in, bytes] { return vlewScheme(in, bytes); });

    Table t({"data per word", "t (bits corrected)", "code overhead",
             "total incl. parity chip"});
    for (const auto &out : sweep.run()) {
        t.row()
            .cell(out.label)
            .cell(std::uint64_t{out.value.t})
            .pct(out.value.codeOverhead)
            .pct(out.value.totalOverhead);
    }
    t.print(os);

    const auto paper_point = vlewScheme(in, 256);
    os << "\nPaper design point: 256B words, 22-EC, 33B code"
          " -> 27% total.\n"
       << "Model at 256B: t = " << paper_point.t << ", total = "
       << 100.0 * paper_point.totalOverhead << "%\n"
       << "(the model solves t for a per-block UE target of "
       << in.ueTarget << " and may pick t one or two above the\n"
       << " paper's 22 depending on how the target is "
          "apportioned across chips; the cost shape is identical)\n";
}

void
fig10DirtyPmOccupancy(std::ostream &os, const SweepOptions &opts,
                      const BenchScale &scale)
{
    // Longer windows than the perf figures: occupancy needs to reach
    // its eviction/clean equilibrium.
    const RunControl rc = benchOccupancyRunControl(scale.time);

    ParallelSweep<RunMetrics> sweep(10, opts);
    for (const auto &name : allBenchmarkNames())
        sweep.add(name, [name, rc] {
            return runOnce(
                SystemConfig::make(PmTech::Reram,
                                   proposalScheme(runtimeRberFor(
                                       PmTech::Reram)),
                                   name),
                rc);
        });

    Table t({"workload", "dirty PM fraction", "OMV lines (LLC)"});
    double sum = 0.0;
    unsigned count = 0;
    for (const auto &out : sweep.run()) {
        t.row().cell(out.label).pct(out.value.dirtyPmFraction, 2).pct(
            out.value.omvFraction, 2);
        sum += out.value.dirtyPmFraction;
        ++count;
    }
    t.print(os);
    if (count)
        os << "\naverage dirty-PM occupancy: " << 100.0 * sum / count
           << "%  (paper: ~4% average; barnes lowest at ~0.5%)\n"
           << "Both in the 'small fraction' regime that makes OMV"
              " caching cheap.\n";

    // Occupancy climbs toward its eviction/clean equilibrium over
    // horizons the paper's 500ms warmup reaches but a bench-scale
    // window cannot; shrinking the hierarchy shows the equilibrium
    // fractions at bench scale.
    os << "\nScaled-cache sensitivity (LLC shrunk to 256KB):\n";
    ParallelSweep<RunMetrics> scaled(1010, opts);
    for (const std::string name : {"hashmap", "tpcc", "ycsb", "echo"})
        scaled.add(name + "@256KB", [name, rc] {
            auto cfg = SystemConfig::make(
                PmTech::Reram,
                proposalScheme(runtimeRberFor(PmTech::Reram)), name);
            cfg.cache.llcBytes = 256 * 1024;
            return runOnce(cfg, rc);
        });
    Table t2({"workload", "dirty PM fraction", "OMV lines (LLC)"});
    for (const auto &out : scaled.run())
        t2.row().cell(out.label).pct(out.value.dirtyPmFraction, 2).pct(
            out.value.omvFraction, 2);
    t2.print(os);
}

void
fig14AccessBreakdown(std::ostream &os, const SweepOptions &opts,
                     const BenchScale &scale)
{
    const auto rc = benchRunControl(scale.time);
    ParallelSweep<RunMetrics> sweep(14, opts);
    for (const auto &name : allBenchmarkNames())
        sweep.add(name, [name, rc] {
            return runOnce(SystemConfig::make(PmTech::Reram,
                                              bitErrorOnlyScheme(), name),
                           rc);
        });

    Table t({"workload", "PM reads", "PM writes", "DRAM reads",
             "DRAM writes", "PM share"});
    for (const auto &out : sweep.run()) {
        const auto &m = out.value;
        const double total = static_cast<double>(
            m.pmReads + m.pmWrites + m.dramReads + m.dramWrites);
        if (total == 0)
            continue;
        t.row()
            .cell(out.label)
            .pct(m.pmReads / total)
            .pct(m.pmWrites / total)
            .pct(m.dramReads / total)
            .pct(m.dramWrites / total)
            .pct((m.pmReads + m.pmWrites) / total);
    }
    t.print(os);
    os << "\nPaper observation: every benchmark significantly"
          " exercises persistent memory;\nKV stores and trees"
          " are PM-dominated, tpcc/vacation mix in sizable DRAM"
          " index traffic.\n";
}

void
fig15Cfactor(std::ostream &os, const SweepOptions &opts,
             const BenchScale &scale)
{
    const auto rc = benchRunControl(scale.time);
    ParallelSweep<RunMetrics> sweep(15, opts);
    for (const auto &name : allBenchmarkNames())
        sweep.add(name, [name, rc] {
            return runOnce(
                SystemConfig::make(PmTech::Reram,
                                   proposalScheme(runtimeRberFor(
                                       PmTech::Reram)),
                                   name),
                rc);
        });

    Table t({"workload", "C", "tWR scale (1 + 33/8 C)"});
    double sum = 0.0;
    unsigned count = 0;
    for (const auto &out : sweep.run()) {
        SchemeTiming s = proposalScheme(7e-5);
        applyCFactor(s, out.value.cFactor);
        t.row().cell(out.label).cell(out.value.cFactor, 3).cell(
            s.pmWriteScale, 3);
        sum += out.value.cFactor;
        ++count;
    }
    t.print(os);
    if (count)
        os << "\naverage C: " << sum / count;
    os << "\nC reflects spatial locality: sequential undo-log"
          " appends and arena-allocated\nwrites coalesce in the"
          " EUR; scattered updates (hashmap-style) do not.\n";
}

namespace {

/** Baseline/proposal pair for one workload (Figs 16/17). */
struct AbResult
{
    RunMetrics baseline;
    RunMetrics proposal;
};

/** Averages a fig16/fig17 table leaves for its footer. */
struct NormalizedPerf
{
    double sum = 0.0;
    unsigned count = 0;
    double worst = 1.0;
    std::string worstName;
};

/**
 * The shared body of Figs 16/17: every workload's baseline/proposal
 * pair as one point (pass 2 needs pass 1's C factor, so the pair stays
 * sequential), one row per workload.
 */
NormalizedPerf
perfVsBaseline(std::ostream &os, const SweepOptions &opts,
               const BenchScale &scale, PmTech tech, std::uint64_t id)
{
    const auto rc = benchRunControl(scale.time);
    ParallelSweep<AbResult> sweep(id, opts);
    for (const auto &name : allBenchmarkNames())
        sweep.add(name, [name, rc, tech] {
            AbResult ab;
            ab.baseline = runBaseline(tech, name, 1, rc);
            ab.proposal = runProposal(tech, name, 1, rc);
            return ab;
        });

    Table t({"workload", "metric", "baseline", "proposal", "normalized",
             "C"});
    NormalizedPerf np;
    for (const auto &out : sweep.run()) {
        const auto &base = out.value.baseline;
        const auto &prop = out.value.proposal;
        const double rel = prop.perf / base.perf;
        t.row()
            .cell(out.label)
            .cell(findProfile(out.label).flops ? "MFLOPS" : "IPC")
            .cell(base.perf, 4)
            .cell(prop.perf, 4)
            .cell(rel, 4)
            .cell(prop.cFactor, 3);
        np.sum += rel;
        ++np.count;
        if (rel < np.worst) {
            np.worst = rel;
            np.worstName = out.label;
        }
    }
    t.print(os);
    return np;
}

} // namespace

void
fig16PerfReram(std::ostream &os, const SweepOptions &opts,
               const BenchScale &scale)
{
    const NormalizedPerf np =
        perfVsBaseline(os, opts, scale, PmTech::Reram, 16);
    if (np.count)
        os << "\naverage normalized performance: " << np.sum / np.count
           << "  (paper: 0.986, i.e. 1.4% overhead)\n";
}

void
fig17PerfPcm(std::ostream &os, const SweepOptions &opts,
             const BenchScale &scale)
{
    const NormalizedPerf np =
        perfVsBaseline(os, opts, scale, PmTech::Pcm, 17);
    if (np.count)
        os << "\naverage normalized performance: " << np.sum / np.count
           << "  (paper: 0.977, i.e. 2.3% overhead)\n"
           << "worst case: " << np.worstName << " at " << np.worst
           << "  (paper: hashmap at 0.86 — write-only queries"
              " feel the tWR inflation most)\n";
}

void
fig18OmvHitRate(std::ostream &os, const SweepOptions &opts,
                const BenchScale &scale)
{
    const auto rc = benchRunControl(scale.time);
    ParallelSweep<RunMetrics> sweep(18, opts);
    for (const auto &name : allBenchmarkNames())
        sweep.add(name, [name, rc] {
            return runOnce(
                SystemConfig::make(PmTech::Reram,
                                   proposalScheme(runtimeRberFor(
                                       PmTech::Reram)),
                                   name),
                rc);
        });

    Table t({"workload", "OMV hit rate", "old-data fetches",
             "PM writes"});
    double sum = 0.0;
    unsigned count = 0;
    for (const auto &out : sweep.run()) {
        const auto &m = out.value;
        t.row()
            .cell(out.label)
            .pct(m.omvHitRate, 2)
            .cell(m.oldDataFetches)
            .cell(m.pmWrites);
        sum += m.omvHitRate;
        ++count;
    }
    t.print(os);
    if (count)
        os << "\naverage OMV hit rate: " << 100.0 * sum / count
           << "%  (paper: 98.6% average; worst case barnes ~89%"
              " due to non-inclusive caching)\n";

    // The paper's misses come from LLC churn evicting a block's old
    // value between write and clean; saturating a 4MB LLC needs the
    // paper's 500ms warmup, beyond this harness's budget. Scaling the
    // LLC down reproduces the mechanism at bench scale.
    os << "\nScaled-cache sensitivity (LLC shrunk to 64KB to"
          " saturate within the window):\n";
    RunControl rc2 = rc;
    rc2.measure = nsToTicks(300000 * scale.time);
    ParallelSweep<RunMetrics> scaled(1018, opts);
    for (const std::string name : {"barnes", "hashmap", "ycsb", "tpcc"})
        scaled.add(name + "@64KB", [name, rc2] {
            auto cfg = SystemConfig::make(
                PmTech::Reram,
                proposalScheme(runtimeRberFor(PmTech::Reram)), name);
            cfg.cache.llcBytes = 64 * 1024;
            return runOnce(cfg, rc2);
        });
    Table t2({"workload", "OMV hit rate", "old-data fetches"});
    for (const auto &out : scaled.run())
        t2.row().cell(out.label).pct(out.value.omvHitRate, 2).cell(
            out.value.oldDataFetches);
    t2.print(os);
}

namespace {

/** Normalized-performance columns for one ablation workload. */
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

void
ablationDesign(std::ostream &os, const SweepOptions &opts,
               const BenchScale &scale)
{
    const auto rc = benchRunControl(scale.time);
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
    t.print(os);

    os << "\nDegraded-mode reconfiguration (Section V-E):\n";
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
    d.print(os);
    os << "\nReconfiguration keeps VLEW length and strength —"
          " no extra storage — while\ncutting the correction"
          " fetch by ~5x for ranks that lost a chip.\n";
}

namespace {

/** One boot-scrub scenario outcome (Section V-B). */
struct ScrubOutcome
{
    std::uint64_t injected = 0;
    ScrubReport report;
    bool pristine = false;
};

Table &
scrubRow(Table &t, const std::string &label, const ScrubOutcome &s)
{
    return t.row()
        .cell(label)
        .cell(s.injected)
        .cell(s.report.bitsCorrected)
        .cell(std::uint64_t{s.report.chipsRecovered})
        .cell(s.pristine && !s.report.uncorrectable ? "yes" : "NO");
}

} // namespace

void
bootScrubCampaign(std::ostream &os, const SweepOptions &opts,
                  const BenchScale &scale)
{
    const unsigned blocks = scale.scrubBlocks;
    ParallelSweep<ScrubOutcome> sweep(2018, opts);

    sweep.add("1e-3 RBER (1 year unrefreshed ReRAM)",
              [blocks](Rng &rng) {
                  ScrubOutcome s;
                  PmRank rank(blocks);
                  rank.initialize(rng);
                  s.injected = rank.injectErrors(rng, rber::bootTarget);
                  s.report = rank.bootScrub();
                  s.pristine = rank.isPristine();
                  return s;
              });
    sweep.add("dead data chip + 1e-4 residual errors",
              [blocks](Rng &rng) {
                  ScrubOutcome s;
                  PmRank rank(blocks);
                  rank.initialize(rng);
                  rank.failChip(4, rng);
                  s.injected = rank.injectErrors(rng, 1e-4);
                  s.report = rank.bootScrub();
                  s.pristine = rank.isPristine();
                  return s;
              });
    sweep.add("dead parity chip", [blocks](Rng &rng) {
        ScrubOutcome s;
        PmRank rank(blocks);
        rank.initialize(rng);
        rank.failChip(8, rng); // parity chip
        s.report = rank.bootScrub();
        s.pristine = rank.isPristine();
        return s;
    });

    Table t({"scenario", "injected bit errors", "bits corrected",
             "chips rebuilt", "pristine after"});
    for (const auto &out : sweep.run())
        scrubRow(t, out.label, out.value);
    t.print(os);

    os << "\nScrub wall-time estimate (fetch every VLEW over the"
          " memory bus):\n";
    Table s({"capacity per channel", "DDR4-2400 bus", "scrub time"});
    for (double tb : {0.25, 0.5, 1.0}) {
        const double seconds =
            PmRank::scrubSeconds(tb * 1e12, 2400e6 * 8);
        s.row()
            .cell(std::to_string(tb) + " TB")
            .cell("19.2 GB/s")
            .cell(Table::formatNumber(seconds, 3) + " s");
    }
    s.print(os);
    os << "\nPaper: scrubbing a terabyte channel takes less than"
          " 1.5 minutes.\n";
}

namespace {

/** One wear-leveling campaign outcome (Section V-E). */
struct WearOutcome
{
    double imbalance = 0.0;
    std::uint64_t migrations = 0;
    double overhead = 0.0;
};

WearOutcome
hammerFrames(unsigned interval, unsigned hot_writes)
{
    // interval == 0 disables leveling (gap never moves).
    WearLevelledRank rank(31, interval ? interval : 1u << 30, 1);
    std::uint8_t data[blockBytes] = {};
    for (unsigned w = 0; w < hot_writes; ++w) {
        data[0] = static_cast<std::uint8_t>(w);
        rank.writeBlock(5, data);
    }
    WearOutcome out;
    out.imbalance = rank.wearImbalance();
    out.migrations = rank.migrations();
    // Each migration costs two extra writes (copy + zero).
    out.overhead =
        2.0 * out.migrations / static_cast<double>(hot_writes);
    return out;
}

} // namespace

void
wearLevelingCampaign(std::ostream &os, const SweepOptions &opts,
                     const BenchScale &scale)
{
    const unsigned hot_writes = scale.wearWrites;
    ParallelSweep<WearOutcome> sweep(87, opts);
    for (unsigned interval : {0u, 64u, 16u, 4u}) {
        const std::string label =
            interval ? "interval " + std::to_string(interval) : "off";
        sweep.add(label, [interval, hot_writes] {
            return hammerFrames(interval, hot_writes);
        });
    }

    Table t({"gap interval (writes)", "peak/mean wear", "migrations",
             "migration write overhead"});
    for (const auto &out : sweep.run())
        t.row()
            .cell(out.label)
            .cell(out.value.imbalance, 3)
            .cell(out.value.migrations)
            .pct(out.label == "off" ? 0.0 : out.value.overhead);
    t.print(os);
    os << "\nPerfect leveling is 1.0; without leveling the hot"
          " frame takes the full write\nstream (imbalance ~="
          " frame count). The psi knob trades leveling quality"
          " for\nmigration bandwidth, as in start-gap [87].\n";

    // Wear-out detection + disable (the [86] flow): one fixed
    // scenario probing a single rank, inherently sequential.
    os << "\nWear-out detection via write-verify:\n";
    PmRank rank(64);
    Rng rng(9);
    rank.initialize(rng);
    rank.setStuckBit(2, 12 * chipBeatBytes + 3, 4, true);
    rank.setStuckBit(5, 12 * chipBeatBytes + 6, 1, false);
    std::uint8_t probe[blockBytes];
    unsigned detected = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
        for (auto &b : probe)
            b = static_cast<std::uint8_t>(rng.next() & 0xFF);
        detected = std::max(detected, rank.writeVerify(12, probe));
    }
    os << "  block 12 has 2 stuck cells; write-verify detected "
       << detected << " bad bit(s) -> disableBlock(12)\n";
    rank.disableBlock(12);
    std::uint8_t out[blockBytes];
    unsigned ok = 0;
    for (unsigned b = 0; b < 32; ++b) {
        if (rank.isDisabled(b))
            continue;
        if (rank.readBlock(b, out).dataCorrect)
            ++ok;
    }
    os << "  " << ok << "/31 sibling blocks of the VLEW remain"
       << " fully readable after disabling.\n";
}

namespace {

/** Runtime reads by the path that served them. */
struct ReadTally
{
    std::uint64_t reads = 0;
    /** Indexed by ReadPath; Failed is the last path. */
    std::array<std::uint64_t, static_cast<std::size_t>(ReadPath::Failed) + 1>
        path{};
    /** Reads that returned wrong data (readRounds leaves out the
     *  reported UEs, so its count is the SDC count). */
    std::uint64_t wrong = 0;

    std::uint64_t
    operator[](ReadPath p) const
    {
        return path[static_cast<std::size_t>(p)];
    }

    ReadTally &
    operator+=(const ReadTally &other)
    {
        reads += other.reads;
        for (std::size_t i = 0; i < path.size(); ++i)
            path[i] += other.path[i];
        wrong += other.wrong;
        return *this;
    }
};

/**
 * @p rounds rounds of inject-at-@p rber / read every block / scrub on
 * one fresh @p blocks-block rank. Scrubbing between rounds keeps each
 * round's RBER the model's "errors since last correction".
 */
ReadTally
readRounds(Rng &rng, unsigned blocks, int rounds, double rber)
{
    ReadTally tally;
    PmRank rank(blocks);
    rank.initialize(rng);

    std::uint8_t out[blockBytes];
    for (int round = 0; round < rounds; ++round) {
        rank.injectErrors(rng, rber);
        for (unsigned b = 0; b < rank.blocks(); ++b) {
            const auto res = rank.readBlock(b, out);
            ++tally.reads;
            ++tally.path[static_cast<std::size_t>(res.path)];
            if (!res.dataCorrect && res.path != ReadPath::Failed)
                ++tally.wrong;
        }
        rank.bootScrub();
    }
    return tally;
}

} // namespace

void
faultSweep(std::ostream &os, const SweepOptions &opts,
           const BenchScale &scale)
{
    const std::vector<double> rbers = {1e-5, 7e-5, 2e-4,
                                       5e-4, 1e-3, 2e-3};
    ParallelSweep<ReadTally> sweep(16, opts);
    for (double rber : rbers)
        sweep.add("rber " + Table::formatNumber(rber, 2),
                  [rber, scale](Rng &rng) {
                      return readRounds(rng, scale.faultBlocks,
                                        scale.faultRounds, rber);
                  });

    Table t({"RBER", "clean", "RS accepted", "VLEW fallback",
             "uncorrectable", "SDC"});
    for (const auto &out : sweep.run()) {
        const auto &pt = out.value;
        const double n = static_cast<double>(pt.reads);
        t.row()
            .cell(rbers[out.index], 2)
            .pct(pt[ReadPath::Clean] / n, 2)
            .pct(pt[ReadPath::RsAccepted] / n, 2)
            .pct((pt[ReadPath::VlewFallback] +
                  pt[ReadPath::ChipRecovered]) / n, 4)
            .pct(pt[ReadPath::Failed] / n, 4)
            .cell(pt.wrong);
    }
    t.print(os);

    os << "\nReading: the RS tier absorbs everything through the"
          " runtime rates; past the\nboot target the VLEW"
          " fallback carries the load. SDC stays at zero"
          " throughout —\nthe acceptance threshold converts"
          " would-be miscorrections into VLEW fetches.\n";
}

void
fig03FlashEcc(std::ostream &os, const SweepOptions &opts)
{
    constexpr unsigned kBits = 512 * 8;
    ParallelSweep<FlashEccRow> sweep(3, opts);
    for (unsigned t : {1u, 4u, 8u, 12u, 24u, 41u})
        sweep.add(std::to_string(t) + "-EC",
                  [t] { return flashEccRow(t, 1e-15); });

    Table t({"correction (bits)", "code bits", "storage overhead",
             "max RBER @ 1e-15 UE"});
    for (const auto &out : sweep.run()) {
        const auto &row = out.value;
        t.row()
            .cell(std::uint64_t{row.t})
            .cell(std::uint64_t{bchCheckBitsPaper(row.t, kBits)})
            .pct(row.overhead)
            .cell(row.maxRber, 2);
    }
    t.print(os);

    const double vlew = bchOverheadPaper(41, kBits);
    os << "\nStorage-style chipkill (Section IV): 41-EC per chip"
          " + 1 parity chip per 8 =\n  "
       << 100.0 * (vlew + (1.0 + vlew) / 8.0)
       << "% total (paper: 13% + 1/8*(1+13%) = 27%)\n";
}

void
refreshTradeoff(std::ostream &os, const SweepOptions &opts)
{
    // Refresh = fetching and re-writing all VLEWs; bandwidth fraction
    // = capacity * (1 + overhead) * 2 / (interval * bus BW).
    const double capacity = 160e9; // the paper's small-channel example
    const double bus = 2400e6 * 8.0;
    const ProposalParams p;

    const std::pair<const char *, double> intervals[] = {
        {"1 s", 1.0},          {"1 min", 60.0},
        {"10 min", 600.0},     {"1 hour", secondsPerHour},
        {"1 day", secondsPerDay},
    };
    ParallelSweep<ReliabilityPoint> sweep(1, opts);
    for (const auto &[label, seconds] : intervals)
        sweep.add(label, [&p, seconds = seconds] {
            return evaluateProposal(rberAfter(MemTech::Pcm3, seconds), p);
        });

    Table t({"refresh interval", "PCM-3 RBER", "VLEW fallback",
             "fallback read BW", "refresh BW", "SDC @ t=2"});
    for (const auto &out : sweep.run()) {
        const auto &pt = out.value;
        const double fallback_bw =
            pt.vlewFallbackFraction * (p.vlewFetchOverheadBlocks() + 1);
        const double refresh_bw =
            capacity * (1.0 + p.totalStorageCost()) * 2.0 /
            (intervals[out.index].second * bus);
        t.row()
            .cell(out.label)
            .cell(pt.rber, 2)
            .pct(pt.vlewFallbackFraction, 3)
            .pct(fallback_bw, 2)
            .pct(refresh_bw, 2)
            .cell(pt.blockSdcRuntime, 2);
    }
    t.print(os);

    os << "\nPaper checkpoints: refreshing every second costs"
          " ~1000% of a 160GB channel's\nbandwidth; hourly"
          " refresh leaves RBER at 2e-4 where the threshold-2"
          " policy still\nmeets the 1e-17 SDC target at 0.02%"
          " fallback.\n";

    os << "\nOutage tolerance at the boot tier"
          " (UE target 1e-15/block):\n";
    ParallelSweep<double> outages(2, opts);
    for (MemTech tech : {MemTech::Reram, MemTech::Pcm3})
        outages.add(memTechName(tech), [tech] {
            return maxOutageSeconds(static_cast<int>(tech), 1e-15);
        });
    Table o({"technology", "max unrefreshed outage"});
    for (const auto &out : outages.run()) {
        const double secs = out.value;
        std::string label;
        if (secs >= secondsPerYear)
            label = ">= 1 year";
        else if (secs >= secondsPerDay)
            label = Table::formatNumber(secs / secondsPerDay, 3) +
                    " days";
        else
            label = Table::formatNumber(secs / secondsPerHour, 3) +
                    " hours";
        o.row().cell(out.label).cell(label);
    }
    o.print(os);
    os << "\nPaper: 'reliable data survival for a week to a"
          " year without refresh'.\n";
}

bool
runtimeCorrection(std::ostream &os, const SweepOptions &opts)
{
    // Runtime error accumulation at the 2e-4 stress point: eight
    // independent 256-block shards (2048 blocks), then one runtime
    // chip failure on a 1024-block rank: VLEWs flag the dead chip and
    // RS erasures must recover every sampled block.
    const double rber = rber::runtimePcm3Hourly;
    constexpr std::size_t kShards = 8;
    ParallelSweep<ReadTally> sweep(42, opts);
    for (std::size_t s = 0; s < kShards; ++s)
        sweep.add("shard " + std::to_string(s), [rber](Rng &rng) {
            return readRounds(rng, 256, 12, rber);
        });
    sweep.add("chip failure", [](Rng &rng) {
        ReadTally tally;
        PmRank rank(1024);
        rank.initialize(rng);
        rank.failChip(5, rng);
        std::uint8_t out[blockBytes];
        for (unsigned b = 0; b < rank.blocks(); b += 3) {
            const auto res = rank.readBlock(b, out);
            ++tally.reads;
            // A read counts on its path only when it returned the
            // right data; every other read counts as wrong.
            if (res.dataCorrect)
                ++tally.path[static_cast<std::size_t>(res.path)];
            else
                ++tally.wrong;
        }
        return tally;
    });

    ReadTally sum, chip;
    for (const auto &out : sweep.run())
        (out.index == kShards ? chip : sum) += out.value;

    const auto frac = [&sum](std::uint64_t n) {
        return static_cast<double>(n) / sum.reads;
    };
    Table t({"outcome", "reads", "fraction"});
    const struct
    {
        const char *label;
        ReadPath path;
        int digits;
    } rows[] = {
        {"clean (zero syndrome)", ReadPath::Clean, 3},
        {"RS accepted (<= 2 corrections)", ReadPath::RsAccepted, 3},
        {"VLEW fallback", ReadPath::VlewFallback, 4},
        {"chip recovered via erasures", ReadPath::ChipRecovered, 4},
        {"uncorrectable", ReadPath::Failed, 4},
    };
    for (const auto &row : rows)
        t.row().cell(row.label).cell(sum[row.path]).pct(
            frac(sum[row.path]), row.digits);
    t.print(os);

    SdcInputs in;
    in.rber = rber;
    os << "\nwrong data returned (SDC): " << sum.wrong << " of "
       << sum.reads << " reads\n"
       << "analytical VLEW fallback rate @ 2e-4: "
       << 100.0 * vlewFallbackFraction(in, 2)
       << "%  (paper: ~0.018% of reads on average)\n";

    const std::uint64_t recovered = chip[ReadPath::ChipRecovered];
    os << "\nruntime chip failure: " << recovered << "/" << chip.reads
       << " sampled blocks recovered via RS erasure correction\n";
    return recovered == chip.reads;
}

} // namespace nvck
