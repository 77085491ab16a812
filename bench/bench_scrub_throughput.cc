/**
 * @file
 * Throughput benchmark for the batched whole-rank scrub engine
 * (chipkill/scrub.hh) against the word-at-a-time reference path
 * (tests/chipkill/scrub_reference.hh), plus a corrupt-word decode
 * micro timing the residue-based solve (BchCodec::solveFromResidue)
 * the engine runs on dirty words. The clean and dirty sweeps start
 * each iteration from the unscrubbed image, so they time the residue
 * pass and not the store's verdict memo; the rescan rows time the memo
 * on its own (a second sweep of an unchanged rank). Every timed sweep
 * is also cross-checked for identical outcomes and media before the
 * numbers are reported, and every timed solve must correct exactly the
 * injected errors; any divergence fails the run.
 *
 * MB/s counts scanned media: every scrub word covers its data span
 * plus its code bits ((256 + 33)B for the paper's VLEW geometry). A
 * rescan reads no media, so its MB/s is the equivalent rate.
 *
 * Usage: bench_scrub_throughput [--points N] [--seed S] [--quick]
 *                               [--json PATH]
 *   --points N  rank sizes to sweep (default all, CI smoke uses 2).
 *   --seed S    base RNG seed (default 2018).
 *   --quick     shorter timing windows (CI smoke).
 *   --json P    output path (default BENCH_scrub_throughput.json).
 * Junk, zero or signed numbers exit 2; an unwritable --json path
 * exits 1.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chipkill/pm_rank.hh"
#include "chipkill/scrub.hh"
#include "chipkill/scrub_reference.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "ecc/bch.hh"
#include "throughput_report.hh"

namespace {

using namespace nvck;

/** Defeats dead-code elimination across timed calls. */
volatile std::uint64_t g_sink = 0;

struct OpResult
{
    double mbps = 0.0;
    double seconds = 0.0;
    std::uint64_t iters = 0;
};

/** One timing record: scenario x path. */
struct Record
{
    std::string scenario;
    std::string path;
    OpResult res;
};

/** Run @p op until @p min_seconds accumulate, convert to MB/s. */
template <typename F>
OpResult
measure(double min_seconds, double bytes_per_op, F &&op)
{
    using clock = std::chrono::steady_clock;
    op(); // warmup: faults tables in, primes caches
    OpResult out;
    const auto start = clock::now();
    do {
        op();
        ++out.iters;
        out.seconds =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (out.seconds < min_seconds);
    out.mbps = bytes_per_op * static_cast<double>(out.iters) /
               out.seconds / 1e6;
    return out;
}

/** Media bytes one whole-rank sweep scans (data spans + code bits). */
double
scannedBytes(const PmRank &rank)
{
    const double words = static_cast<double>(rank.chips()) *
                         rank.vlewsPerChip();
    return words * (rank.params().vlewDataBytes +
                    rank.params().vlewCodeBytes);
}

/** Engine sweep vs reference sweep must agree exactly (exit 1). */
void
checkIdentical(const VlewStore &dirty, const std::string &scenario)
{
    VlewStore media = dirty;
    const auto batched = ScrubEngine().sweep(media);
    const auto reference = scrubReference(dirty);
    if (batched != reference.outcomes ||
        !matchesReference(media, reference)) {
        std::cerr << "FATAL: engine/reference divergence in "
                  << scenario << "\n";
        std::exit(1);
    }
}

void
benchSweeps(std::vector<Record> &records, unsigned blocks,
            std::uint64_t seed, double min_seconds)
{
    PmRank rank(blocks);
    Rng rng(seed);
    rank.initialize(rng);
    const double bytes = scannedBytes(rank);
    const std::string size_tag = std::to_string(blocks);

    // Clean sweep: the dominant scrub regime — every word passes the
    // residue check, no decode work at all. Each iteration restores the
    // unscrubbed image, as the dirty sweeps below do, so the verdict
    // memo of the last sweep never answers for the residue pass.
    const VlewStore clean = rank.snapshot().media;
    checkIdentical(clean, "clean_sweep_" + size_tag);
    VlewStore media = clean;
    records.push_back({"clean_sweep_" + size_tag, "engine",
                       measure(min_seconds, bytes, [&] {
                           media = clean;
                           g_sink = g_sink +
                                    ScrubEngine().sweep(media).size();
                       })});
    records.push_back({"clean_sweep_" + size_tag, "per_word",
                       measure(min_seconds, bytes, [&] {
                           media = clean;
                           g_sink = g_sink + scrubReference(media)
                                                 .outcomes.size();
                       })});

    // Rescan: a swept, unchanged rank swept again (the warm-up sweep
    // proves every word), so every word is a verdict-memo hit.
    media = clean;
    records.push_back({"rescan_" + size_tag, "engine",
                       measure(min_seconds, bytes, [&] {
                           g_sink = g_sink +
                                    ScrubEngine().sweep(media).size();
                       })});

    // Dirty sweep at a realistic boot RBER: a few words need the
    // corrupt-word decode. Both paths pay the identical copy of the
    // dirty image, so the comparison stays apples-to-apples.
    rank.injectErrors(rng, 1e-5);
    const VlewStore dirty = rank.snapshot().media;
    checkIdentical(dirty, "dirty_sweep_" + size_tag);
    records.push_back({"dirty_sweep_" + size_tag, "engine",
                       measure(min_seconds, bytes, [&] {
                           media = dirty;
                           g_sink = g_sink +
                                    ScrubEngine().sweep(media).size();
                       })});
    records.push_back({"dirty_sweep_" + size_tag, "per_word",
                       measure(min_seconds, bytes, [&] {
                           media = dirty;
                           g_sink = g_sink + scrubReference(media)
                                                 .outcomes.size();
                       })});
}

/** Corrupt-word decode micro: the residue solve on dirty words. */
void
benchCorruptDecode(std::vector<Record> &records, std::uint64_t seed,
                   double min_seconds)
{
    const ProposalParams params;
    const BchCodec codec(params.vlewDataBytes * 8, params.vlewT);
    const double bytes = params.vlewDataBytes + params.vlewCodeBytes;
    Rng rng(seed ^ 0xDECD);

    // A pool of fully-absorbed residues of lightly corrupted words
    // (1..4 errors — what a dirty word actually looks like at boot
    // RBERs), so the timed region holds only the solve.
    std::vector<BchResidue> pool(32);
    BitVec data(codec.k());
    unsigned widx = 0;
    for (auto &res : pool) {
        data.randomize(rng);
        BitVec noisy = codec.encode(data);
        const unsigned errors = 1 + widx++ % 4;
        noisy.injectExactErrors(rng, errors);
        codec.residueStart(res);
        codec.residueAbsorbBits(res, noisy.raw().data(), noisy.size());
        // Every word is within t errors: the solve must fix them all
        // before it is timed.
        const auto dec = codec.solveFromResidue(res);
        if (dec.status != DecodeStatus::Corrected ||
            dec.corrections != errors) {
            std::cerr << "FATAL: corrupt-word solve missed errors\n";
            std::exit(1);
        }
    }

    std::size_t next = 0;
    records.push_back(
        {"corrupt_decode", "fast", measure(min_seconds, bytes, [&] {
             const auto &res = pool[next++ % pool.size()];
             g_sink = g_sink + codec.solveFromResidue(res).corrections;
         })});
}

const Record *
find(const std::vector<Record> &records, const std::string &scenario,
     const std::string &path)
{
    for (const auto &r : records)
        if (r.scenario == scenario && r.path == path)
            return &r;
    return nullptr;
}

void
writeJson(const std::vector<Record> &records,
          const std::vector<std::string> &scenarios,
          const std::string &path)
{
    std::ostringstream os;
    os << "{\n  \"benchmark\": \"scrub_throughput\",\n"
       << "  \"results\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        os << "    {\"scenario\": \"" << r.scenario << "\", \"path\": \""
           << r.path << "\", \"mbps\": " << r.res.mbps
           << ", \"iters\": " << r.res.iters
           << ", \"seconds\": " << r.res.seconds << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"speedup\": {\n";
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const Record *slow = find(records, scenarios[s], "per_word");
        const Record *quick = find(records, scenarios[s], "engine");
        const double speedup =
            (slow && quick && slow->res.mbps > 0)
                ? quick->res.mbps / slow->res.mbps
                : 0.0;
        os << "    \"" << scenarios[s] << "\": " << speedup
           << (s + 1 < scenarios.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    writeReport(path, os.str());
}

} // namespace

int
main(int argc, char **argv)
{
    double min_seconds = 0.25;
    unsigned points = 3;
    std::uint64_t seed = 2018;
    std::string json_path = "BENCH_scrub_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            min_seconds = 0.04;
        } else if (arg == "--points" && i + 1 < argc) {
            points = static_cast<unsigned>(
                flagPositive(argv[0], "--points", argv[++i], UINT32_MAX));
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = flagPositive(argv[0], "--seed", argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--points N] [--seed S] [--quick]"
                      << " [--json PATH]\n";
            return 2;
        }
    }

    const unsigned sizes[] = {1024, 4096, 16384};
    const unsigned npoints =
        std::min<unsigned>(points, sizeof(sizes) / sizeof(sizes[0]));

    std::vector<Record> records;
    std::vector<std::string> scenarios;
    for (unsigned p = 0; p < npoints; ++p) {
        benchSweeps(records, sizes[p], seed, min_seconds);
        scenarios.push_back("clean_sweep_" +
                            std::to_string(sizes[p]));
        scenarios.push_back("dirty_sweep_" +
                            std::to_string(sizes[p]));
    }
    benchCorruptDecode(records, seed, min_seconds);

    Table table({"scenario", "baseline MB/s", "engine MB/s", "speedup"});
    double clean_speedup = 0.0;
    for (const auto &scenario : scenarios) {
        const Record *slow = find(records, scenario, "per_word");
        const Record *quick = find(records, scenario, "engine");
        const double speedup = quick->res.mbps / slow->res.mbps;
        if (scenario.rfind("clean_sweep_", 0) == 0 &&
            speedup > clean_speedup)
            clean_speedup = speedup;
        table.row()
            .cell(scenario)
            .cell(slow->res.mbps)
            .cell(quick->res.mbps)
            .cell(speedup);
    }
    table.print(std::cout);
    std::cout << "corrupt-word residue solve: "
              << Table::formatNumber(
                     find(records, "corrupt_decode", "fast")->res.mbps, 3)
              << " MB/s\n";
    for (unsigned p = 0; p < npoints; ++p) {
        const std::string scenario = "rescan_" + std::to_string(sizes[p]);
        std::cout << scenario << " (verdict-memo hits): "
                  << Table::formatNumber(
                         find(records, scenario, "engine")->res.mbps, 3)
                  << " MB/s\n";
    }
    std::cout << "best clean whole-rank scrub speedup: "
              << Table::formatNumber(clean_speedup, 3) << "x\n";

    writeJson(records, scenarios, json_path);
    return 0;
}
