#include "chipkill/scrub_reference.hh"

#include "ecc/bch.hh"

namespace nvck {

ScrubReference
scrubReference(const VlewStore &store, const std::vector<bool> &skip)
{
    const BchCodec &codec = store.codec();
    const unsigned r = codec.r();
    const unsigned span = store.spanBytes();
    ScrubReference ref;
    ref.outcomes.resize(store.words());
    ref.codewords.reserve(store.words());
    for (std::size_t w = 0; w < store.words(); ++w) {
        BitVec cw = store.codeword(w);
        ScrubWordResult &out = ref.outcomes[w];
        if (!skip.empty() && skip[w]) {
            ref.codewords.push_back(std::move(cw));
            continue;
        }
        const auto dec = codec.decode(cw);
        if (dec.status == DecodeStatus::Uncorrectable) {
            out.corrections = -1;
        } else if (dec.status == DecodeStatus::Corrected) {
            out.corrections = static_cast<int>(dec.corrections);
            for (const std::uint32_t pos : dec.positions)
                if (pos >= r)
                    out.changedBlocks |=
                        1ull << ((pos - r) / (8 * store.beatBytes()));
            // A corrected word is written back, and stuck cells read
            // back stuck.
            const std::uint8_t *mask = store.stuckMask(w);
            const std::uint8_t *val = store.stuckValue(w);
            std::vector<std::uint8_t> data(span);
            cw.getBytes(r, data.data(), span);
            for (unsigned i = 0; i < span; ++i)
                data[i] = static_cast<std::uint8_t>(
                    (data[i] & ~mask[i]) | (val[i] & mask[i]));
            cw.setBytes(r, data.data(), span);
        }
        ref.codewords.push_back(std::move(cw));
    }
    return ref;
}

bool
matchesReference(const VlewStore &scrubbed, const ScrubReference &ref)
{
    if (scrubbed.words() != ref.codewords.size())
        return false;
    for (std::size_t w = 0; w < scrubbed.words(); ++w)
        if (!(scrubbed.codeword(w) == ref.codewords[w]))
            return false;
    return true;
}

ScrubSweepStats
tally(const std::vector<ScrubWordResult> &outcomes)
{
    ScrubSweepStats stats;
    stats.wordsScanned = outcomes.size();
    for (const auto &o : outcomes) {
        if (o.corrections < 0) {
            ++stats.wordsDirty;
            ++stats.wordsUncorrectable;
        } else if (o.corrections > 0) {
            ++stats.wordsDirty;
            stats.bitsCorrected +=
                static_cast<std::uint64_t>(o.corrections);
        }
    }
    return stats;
}

} // namespace nvck
