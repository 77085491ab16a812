/**
 * @file
 * Throughput microbenchmark of the software codec substrate (the
 * table-driven BCH and RS codecs). For each of the paper's three code
 * points —
 * the 22-EC VLEW BCH(2048+264), the baseline per-block 14-EC
 * BCH(512+140), and the per-block RS(72,64) — it measures encode,
 * clean-word decode (syndrome check), and corrupt-word decode (t
 * errors: BM + Chien) in MB/s of protected data, plus dead-chip decode:
 * for the two BCH codes a uniformly random word (the VLEW a failed
 * chip returns, which must come out Uncorrectable), for RS a word whose
 * r symbols from one chip are random and decoded as erasures (the RS
 * tier's chip-kill path) and the same words decoded blind, with no
 * erasure hint (a runtime read's first RS pass). It prints a table
 * and emits a machine-readable JSON file for trend tracking in CI.
 * Every JSON record keeps the "kernel": "sliced" tag, part of the key
 * the checked-in baselines are compared by.
 *
 * Usage: bench_codec_throughput [--quick] [--json PATH]
 *   --quick    shorter timing windows (CI smoke).
 *   --json P   write results to P (default BENCH_codec_throughput.json).
 * An unwritable --json path exits 1.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/table.hh"
#include "ecc/bch.hh"
#include "ecc/rs.hh"
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

/** One timing record: code point x operation. */
struct Record
{
    std::string code;
    std::string op;
    OpResult res;
};

/**
 * Run @p op until @p min_seconds of wall time accumulate (one warmup
 * call first) and convert to MB/s of protected payload.
 */
template <typename F>
OpResult
measure(double min_seconds, double bytes_per_op, F &&op)
{
    using clock = std::chrono::steady_clock;
    op(); // warmup: faults tables in, primes caches
    OpResult out;
    const auto start = clock::now();
    do {
        for (int i = 0; i < 16; ++i)
            op();
        out.iters += 16;
        out.seconds =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (out.seconds < min_seconds);
    out.mbps = bytes_per_op * static_cast<double>(out.iters) /
               out.seconds / 1e6;
    return out;
}

/** Encode / decode-clean / decode-corrupt for one BCH instance. */
void
benchBch(std::vector<Record> &records, const std::string &name,
         unsigned k, unsigned t, double min_seconds)
{
    const BchCodec codec(k, t);
    const double data_bytes = k / 8.0;
    Rng rng(0xB37 + k + t);
    BitVec data(k);
    data.randomize(rng);
    const BitVec clean = codec.encode(data);

    // Pre-corrupt a pool of words with t errors each so the timed
    // region holds only copy + decode.
    std::vector<BitVec> pool(16, clean);
    for (auto &w : pool)
        w.injectExactErrors(rng, t);

    records.push_back(
        {name, "encode",
         measure(min_seconds, data_bytes, [&] {
             g_sink = g_sink + codec.encodeDelta(data).popcount();
         })});
    records.push_back(
        {name, "decode_clean",
         measure(min_seconds, data_bytes, [&] {
             BitVec w = clean;
             g_sink = g_sink + codec.decode(w).corrections;
         })});
    std::size_t next = 0;
    records.push_back(
        {name, "decode_corrupt",
         measure(min_seconds, data_bytes, [&] {
             BitVec w = pool[next++ % pool.size()];
             g_sink = g_sink + codec.decode(w).corrections;
         })});

    // Dead chip: uniformly random words, whose random syndromes give a
    // degree-t locator that the decoder must prove uncorrectable.
    std::vector<BitVec> dead(16, BitVec(codec.n()));
    for (auto &w : dead)
        w.randomize(rng);
    next = 0;
    records.push_back(
        {name, "decode_dead_chip",
         measure(min_seconds, data_bytes, [&] {
             BitVec w = dead[next++ % dead.size()];
             g_sink = g_sink +
                      static_cast<std::uint64_t>(codec.decode(w).status);
         })});
}

/** The same four operations for the RS code point, plus the blind
 *  dead-chip decode. */
void
benchRs(std::vector<Record> &records, const std::string &name,
        unsigned k, unsigned r, double min_seconds)
{
    const RsCodec codec(k, r);
    const double data_bytes = k;
    Rng rng(0x25 + k + r);
    std::vector<GfElem> data(k);
    for (auto &s : data)
        s = static_cast<GfElem>(rng.below(256));
    const auto clean = codec.encode(data);

    std::vector<std::vector<GfElem>> pool(16, clean);
    for (auto &w : pool)
        for (unsigned e = 0; e < codec.t(); ++e)
            w[rng.below(w.size())] ^=
                static_cast<GfElem>(rng.below(255) + 1);

    records.push_back({name, "encode",
                       measure(min_seconds, data_bytes, [&] {
                           g_sink = g_sink + codec.encode(data).back();
                       })});
    records.push_back({name, "decode_clean",
                       measure(min_seconds, data_bytes, [&] {
                           auto w = clean;
                           g_sink = g_sink + codec.decode(w).corrections;
                       })});
    std::size_t next = 0;
    records.push_back({name, "decode_corrupt",
                       measure(min_seconds, data_bytes, [&] {
                           auto w = pool[next++ % pool.size()];
                           g_sink = g_sink + codec.decode(w).corrections;
                       })});

    // Dead chip: one chip's r symbols (a chip beat, check bytes
    // included) replaced by random ones and decoded as erasures.
    std::vector<std::vector<GfElem>> dead(16, clean);
    std::vector<std::vector<std::uint32_t>> erased(dead.size());
    for (std::size_t i = 0; i < dead.size(); ++i) {
        const unsigned first =
            static_cast<unsigned>(rng.below(codec.n() / r)) * r;
        for (unsigned s = first; s < first + r; ++s) {
            dead[i][s] = static_cast<GfElem>(rng.below(256));
            erased[i].push_back(s);
        }
    }
    next = 0;
    records.push_back(
        {name, "decode_dead_chip",
         measure(min_seconds, data_bytes, [&] {
             const std::size_t i = next++ % dead.size();
             auto w = dead[i];
             g_sink = g_sink + codec.decode(w, erased[i]).corrections;
         })});
    next = 0;
    records.push_back(
        {name, "decode_blind_dead_chip",
         measure(min_seconds, data_bytes, [&] {
             auto w = dead[next++ % dead.size()];
             g_sink = g_sink +
                      static_cast<std::uint64_t>(codec.decode(w).status);
         })});
}

void
writeJson(const std::vector<Record> &records, const std::string &path)
{
    std::ostringstream os;
    os << "{\n  \"benchmark\": \"codec_throughput\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        os << "    {\"code\": \"" << r.code
           << "\", \"kernel\": \"sliced\", \"op\": \"" << r.op
           << "\", \"mbps\": " << r.res.mbps
           << ", \"iters\": " << r.res.iters
           << ", \"seconds\": " << r.res.seconds << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    writeReport(path, os.str());
}

} // namespace

int
main(int argc, char **argv)
{
    double min_seconds = 0.25;
    std::string json_path = "BENCH_codec_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            min_seconds = 0.04;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--quick] [--json PATH]\n";
            return 2;
        }
    }

    std::vector<Record> records;
    benchBch(records, "bch_vlew_2048_22", 2048, 22, min_seconds);
    benchBch(records, "bch_base_512_14", 512, 14, min_seconds);
    benchRs(records, "rs_72_64", 64, 8, min_seconds);

    Table table({"code", "op", "MB/s"});
    for (const Record &r : records)
        table.row().cell(r.code).cell(r.op).cell(r.res.mbps);
    table.print(std::cout);

    writeJson(records, json_path);
    return 0;
}
