#include "injector.hh"

#include <vector>

#include "common/log.hh"

namespace nvck {

namespace {

/** Count one decoded trial; @p matches: the word equals the sent one. */
void
tally(InjectionReport &report, DecodeStatus status, bool matches)
{
    ++report.trials;
    switch (status) {
      case DecodeStatus::Clean:
        // A clean mismatch: the errors formed another codeword.
        ++(matches ? report.clean : report.miscorrected);
        break;
      case DecodeStatus::Corrected:
        ++(matches ? report.corrected : report.miscorrected);
        break;
      case DecodeStatus::Uncorrectable:
        ++report.detected;
        break;
    }
}

} // namespace

InjectionReport
injectRs(const RsCodec &codec, const RsCampaign &c, std::uint64_t first,
         std::uint64_t last)
{
    const unsigned n = codec.n();
    const unsigned m = codec.field().m();
    NVCK_ASSERT(m == 8, "RS injection assumes byte symbols");

    std::vector<std::uint32_t> erasures;
    if (c.failedChip >= 0) {
        // Data chip f contributes symbols [r + f*beat, r + (f+1)*beat);
        // chip index dataChips means the parity chip (symbols [0, r)).
        const unsigned beat = c.chipBeatBytes;
        const unsigned first_sym =
            codec.r() + static_cast<unsigned>(c.failedChip) * beat;
        if (first_sym >= codec.n()) {
            for (std::uint32_t s = 0; s < codec.r(); ++s)
                erasures.push_back(s);
        } else {
            for (std::uint32_t s = first_sym; s < first_sym + beat; ++s)
                erasures.push_back(s);
        }
    }

    const Rng base(c.seed);
    InjectionReport report;
    for (std::uint64_t trial = first; trial < last; ++trial) {
        Rng rng = base.substream(trial);
        std::vector<GfElem> data(codec.k());
        for (auto &sym : data)
            sym = static_cast<GfElem>(rng.next() & 0xFF);
        const auto clean = codec.encode(data);
        auto noisy = clean;

        // Random bit errors across the whole codeword.
        std::uint64_t injected_symbols = 0;
        for (unsigned s = 0; s < n; ++s) {
            GfElem flip = 0;
            for (unsigned b = 0; b < 8; ++b)
                if (rng.chance(c.rber))
                    flip |= 1u << b;
            if (flip) {
                noisy[s] ^= flip;
                ++injected_symbols;
            }
        }
        // Chip failure: garble the failed chip's symbols entirely.
        for (auto pos : erasures)
            noisy[pos] = static_cast<GfElem>(rng.next() & 0xFF);

        report.errorCount.sample(
            static_cast<std::size_t>(injected_symbols));

        const auto res = codec.decode(noisy, erasures, c.maxErrors);
        tally(report, res.status, noisy == clean);
    }
    return report;
}

InjectionReport
injectBch(const BchCodec &codec, const BchCampaign &c, std::uint64_t first,
          std::uint64_t last)
{
    const Rng base(c.seed);
    InjectionReport report;
    for (std::uint64_t trial = first; trial < last; ++trial) {
        Rng rng = base.substream(trial);
        BitVec data(codec.k());
        data.randomize(rng);
        const BitVec clean = codec.encode(data);
        BitVec noisy = clean;
        report.errorCount.sample(noisy.injectErrors(rng, c.rber));

        const auto res = codec.decode(noisy);
        tally(report, res.status, noisy == clean);
    }
    return report;
}

} // namespace nvck
