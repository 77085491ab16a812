/**
 * @file
 * Figure 7: distribution of the number of byte errors in 64B memory
 * requests at 2e-4 RBER — analytically (binomial over the 72-byte RS
 * word) and validated by Monte-Carlo injection against the real
 * RS(72,64) codec. The paper's threshold choice rests on >99.98% of
 * accesses having <= 2 errors.
 *
 * The 200k injection trials run as one sweep point per 512-trial chunk;
 * trial i draws substream (seed, i) whichever point runs it, so the
 * merged report is the same for any worker count.
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "common/table.hh"
#include "reliability/binomial.hh"
#include "reliability/injector.hh"
#include "reliability/error_model.hh"
#include "sim/parallel.hh"

using namespace nvck;

int
main(int argc, char **argv)
{
    const auto opts = benchSweepOptions(argc, argv);
    banner("Figure 7",
           "distribution of byte errors per 64B request @ 2e-4 RBER");

    const double rber = rber::runtimePcm3Hourly;
    const unsigned word_bytes = 72;
    const double p_byte = symbolErrorProb(rber, 8);

    const RsCodec rs(64, 8);
    RsCampaign campaign;
    campaign.rber = rber;
    campaign.seed = opts.seedSet ? opts.seed : 2018;
    constexpr std::uint64_t kTrials = 200000, kChunk = 512;
    ParallelSweep<InjectionReport> sweep(7, opts);
    for (std::uint64_t lo = 0; lo < kTrials; lo += kChunk) {
        const std::uint64_t hi = std::min(lo + kChunk, kTrials);
        sweep.add("trials " + std::to_string(lo),
                  [&rs, &campaign, lo, hi] {
                      return injectRs(rs, campaign, lo, hi);
                  });
    }
    InjectionReport report;
    for (const auto &out : sweep.run())
        report.merge(out.value);

    Table t({"byte errors", "analytical P", "Monte-Carlo P",
             "cumulative (analytical)"});
    double cumulative = 0.0;
    for (unsigned k = 0; k <= 6; ++k) {
        const double analytical = binomialPmf(word_bytes, k, p_byte);
        cumulative += analytical;
        const double measured =
            static_cast<double>(report.errorCount.bucket(k)) /
            static_cast<double>(report.trials);
        t.row()
            .cell(std::uint64_t{k})
            .cell(analytical, 3)
            .cell(measured, 3)
            .pct(cumulative, 4);
    }
    t.print(std::cout);

    std::cout << "\nP(<= 2 errors) analytical: "
              << 100.0 * (binomialPmf(word_bytes, 0, p_byte) +
                          binomialPmf(word_bytes, 1, p_byte) +
                          binomialPmf(word_bytes, 2, p_byte))
              << "%  (paper: > 99.98%, motivating the threshold of 2)\n"
              << "P(>= 5 errors) analytical: "
              << binomialTail(word_bytes, 5, p_byte)
              << "  (paper: 1.5e-7 of accesses can defeat t = 4)\n"
              << "\nMonte-Carlo sanity ("
              << (report.trials % 1000
                      ? std::to_string(report.trials)
                      : std::to_string(report.trials / 1000) + "k")
              << " trials on the real codec): "
              << report.corrected + report.clean << " OK, "
              << report.detected << " deferred to VLEW, "
              << report.miscorrected << " SDC\n";
    return 0;
}
