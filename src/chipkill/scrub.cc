#include "scrub.hh"

#include <algorithm>

#include "chipkill/degraded.hh"
#include "chipkill/pm_rank.hh"
#include "common/threadpool.hh"
#include "common/types.hh"

namespace nvck {

void
ScrubEngine::forEachWord(
    std::size_t words, const std::function<void(std::size_t)> &fn) const
{
    ThreadPool &pool = opts.pool ? *opts.pool : ThreadPool::global();
    const std::size_t batch = std::max(1u, opts.batchWords);
    const std::size_t batches = (words + batch - 1) / batch;
    pool.parallelFor(batches, [&](std::size_t b) {
        const std::size_t lo = b * batch;
        const std::size_t hi = std::min(words, lo + batch);
        for (std::size_t w = lo; w < hi; ++w)
            fn(w);
    });
}

ScrubSweepStats
ScrubEngine::tally(const std::vector<ScrubWordResult> &outcomes)
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

ScrubWordResult
ScrubEngine::scrubPmWord(PmRank &rank, unsigned chip,
                         unsigned vlew) const
{
    const BchCodec &codec = rank.vlewCodec;
    const unsigned r = codec.r();
    const unsigned span_bytes = rank.geom.vlewDataBytes;
    std::uint8_t *data =
        &rank.chipStore[chip][static_cast<std::size_t>(vlew) *
                              span_bytes];
    BitVec &code = rank.codeStore[chip][vlew];

    // One streaming pass over the stored bytes classifies the word:
    // [code | data] absorbed from the highest coefficient down.
    BchResidue res;
    codec.residueStart(res);
    codec.residueAbsorbBytes(res, data, span_bytes);
    codec.residueAbsorbBits(res, code.raw().data(), r);

    ScrubWordResult out;
    if (codec.residueIsZero(res))
        return out; // clean: no syndrome work at all

    const auto dec = codec.solveFromResidue(res);
    if (dec.status == DecodeStatus::Uncorrectable) {
        out.corrections = -1;
        return out;
    }
    // Corrected: flip the bits in place instead of re-materialising
    // the codeword, then re-assert stuck cells exactly like storeVlew.
    for (const std::uint32_t pos : dec.positions) {
        if (pos < r) {
            code.flip(pos);
        } else {
            const std::uint32_t off = pos - r;
            data[off >> 3] ^=
                static_cast<std::uint8_t>(1u << (off & 7));
            out.changedBlocks |= 1ull
                                 << (off / (8 * chipBeatBytes));
        }
    }
    out.corrections = static_cast<int>(dec.corrections);
    rank.enforceStuck(chip,
                      static_cast<std::uint64_t>(vlew) * span_bytes,
                      static_cast<std::uint64_t>(vlew + 1) *
                          span_bytes);
    return out;
}

std::vector<ScrubWordResult>
ScrubEngine::sweep(PmRank &rank) const
{
    const std::size_t words =
        static_cast<std::size_t>(rank.chips()) * rank.numVlews;
    std::vector<ScrubWordResult> out(words);
    // Each word touches only its own span/code storage and its own
    // outcome slot, so batches commute and any worker count produces
    // bit-identical results.
    forEachWord(words, [&](std::size_t w) {
        out[w] = scrubPmWord(
            rank, static_cast<unsigned>(w / rank.numVlews),
            static_cast<unsigned>(w % rank.numVlews));
    });
    return out;
}

std::vector<ScrubWordResult>
ScrubEngine::sweepReference(PmRank &rank) const
{
    const unsigned r = rank.vlewCodec.r();
    const std::size_t words =
        static_cast<std::size_t>(rank.chips()) * rank.numVlews;
    std::vector<ScrubWordResult> out(words);
    for (std::size_t w = 0; w < words; ++w) {
        const unsigned chip = static_cast<unsigned>(w / rank.numVlews);
        const unsigned vlew = static_cast<unsigned>(w % rank.numVlews);
        BitVec cw = rank.assembleVlew(chip, vlew);
        const auto dec = rank.vlewCodec.decode(cw);
        if (dec.status == DecodeStatus::Uncorrectable) {
            out[w].corrections = -1;
            continue;
        }
        if (dec.status == DecodeStatus::Clean)
            continue;
        rank.storeVlew(chip, vlew, cw);
        out[w].corrections = static_cast<int>(dec.corrections);
        for (const std::uint32_t pos : dec.positions) {
            if (pos >= r)
                out[w].changedBlocks |=
                    1ull << ((pos - r) / (8 * chipBeatBytes));
        }
    }
    return out;
}

ScrubWordResult
ScrubEngine::scrubDegradedWord(DegradedRank &rank, unsigned vlew) const
{
    ScrubWordResult out;
    if (rank.poisonedVlew[vlew])
        return out; // the caller owns poisoning policy

    const BchCodec &codec = rank.vlewCodec;
    const unsigned r = codec.r();
    const unsigned span_bytes = rank.geom.vlewDataBytes;
    std::uint8_t *data =
        &rank.store[static_cast<std::size_t>(vlew) * span_bytes];
    BitVec &code = rank.codeStore[vlew];

    BchResidue res;
    codec.residueStart(res);
    codec.residueAbsorbBytes(res, data, span_bytes);
    codec.residueAbsorbBits(res, code.raw().data(), r);
    if (codec.residueIsZero(res))
        return out;

    const auto dec = codec.solveFromResidue(res);
    if (dec.status == DecodeStatus::Uncorrectable) {
        out.corrections = -1;
        return out;
    }
    for (const std::uint32_t pos : dec.positions) {
        if (pos < r) {
            code.flip(pos);
        } else {
            const std::uint32_t off = pos - r;
            data[off >> 3] ^=
                static_cast<std::uint8_t>(1u << (off & 7));
            out.changedBlocks |= 1ull << (off / (8 * blockBytes));
        }
    }
    out.corrections = static_cast<int>(dec.corrections);
    return out;
}

std::vector<ScrubWordResult>
ScrubEngine::sweep(DegradedRank &rank) const
{
    std::vector<ScrubWordResult> out(rank.numVlews);
    forEachWord(rank.numVlews, [&](std::size_t w) {
        out[w] =
            scrubDegradedWord(rank, static_cast<unsigned>(w));
    });
    return out;
}

std::vector<ScrubWordResult>
ScrubEngine::sweepReference(DegradedRank &rank) const
{
    const unsigned r = rank.vlewCodec.r();
    std::vector<ScrubWordResult> out(rank.numVlews);
    for (unsigned v = 0; v < rank.numVlews; ++v) {
        if (rank.poisonedVlew[v])
            continue;
        BitVec cw = rank.assembleVlew(v);
        const auto dec = rank.vlewCodec.decode(cw);
        if (dec.status == DecodeStatus::Uncorrectable) {
            out[v].corrections = -1;
            continue;
        }
        if (dec.status == DecodeStatus::Clean)
            continue;
        rank.storeVlew(v, cw);
        out[v].corrections = static_cast<int>(dec.corrections);
        for (const std::uint32_t pos : dec.positions) {
            if (pos >= r)
                out[v].changedBlocks |=
                    1ull << ((pos - r) / (8 * blockBytes));
        }
    }
    return out;
}

} // namespace nvck
