#include "vlew_store.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/log.hh"
#include "common/rng.hh"

namespace nvck {

VlewStore::VlewStore(std::shared_ptr<const BchCodec> codec,
                     std::size_t words, unsigned beat_bytes)
    : bch(std::move(codec)),
      numWords(words),
      spanLen(bch->k() / 8),
      beatLen(beat_bytes),
      codeStride((bch->r() + 63) / 64)
{
    NVCK_ASSERT(bch->k() % 8 == 0, "VLEW span must be whole bytes");
    NVCK_ASSERT(beatLen > 0 && spanLen % beatLen == 0 &&
                    spanLen / beatLen <= 64,
                "beat size must cut the span into at most 64 beats");
    media.assign(numWords * spanLen, 0);
    golden = media;
    stuckMaskBytes = media;
    stuckValBytes = media;
    codeBits.assign(numWords * codeStride, 0);
    goldenCode = codeBits;
    verdicts.assign(numWords, Verdict::Unknown);
}

BitVec
VlewStore::codeword(std::size_t word) const
{
    const unsigned r = bch->r();
    BitVec cw(bch->n());
    for (unsigned i = 0; i < codeStride; ++i)
        cw.setBits(64 * i, std::min(64u, r - 64 * i),
                   codeBits[word * codeStride + i]);
    cw.setBytes(r, &media[word * spanLen], spanLen);
    return cw;
}

bool
VlewStore::isPristine() const
{
    return media == golden && codeBits == goldenCode;
}

bool
VlewStore::operator==(const VlewStore &other) const
{
    return numWords == other.numWords && spanLen == other.spanLen &&
           beatLen == other.beatLen && media == other.media &&
           golden == other.golden && codeBits == other.codeBits &&
           goldenCode == other.goldenCode &&
           stuckMaskBytes == other.stuckMaskBytes &&
           stuckValBytes == other.stuckValBytes;
}

void
VlewStore::assertStuck(std::size_t lo, std::size_t hi)
{
    for (std::size_t i = lo; i < hi; ++i) {
        const std::uint8_t mask = stuckMaskBytes[i];
        if (mask != 0)
            media[i] = static_cast<std::uint8_t>(
                (media[i] & ~mask) | (stuckValBytes[i] & mask));
    }
}

void
VlewStore::applyDelta(std::size_t beat, const std::uint8_t *delta,
                      unsigned landed)
{
    const std::size_t lo = beat * beatLen;
    const std::size_t word = beat / beatsPerWord();
    if (landed & (Data | Code))
        forget(word);
    if (landed & Data) {
        // The chip XORs the received sum into the stored bits:
        // pre-existing cell errors propagate one-to-one.
        for (unsigned b = 0; b < beatLen; ++b)
            media[lo + b] ^= delta[b];
        assertStuck(lo, lo + beatLen);
    }
    if (landed & Golden)
        for (unsigned b = 0; b < beatLen; ++b)
            golden[lo + b] ^= delta[b];
    if (!(landed & (Code | Golden)) ||
        std::all_of(delta, delta + beatLen,
                    [](std::uint8_t b) { return b == 0; }))
        return;

    // Linear code-bit update: f(x) ^ f(x') = f(x ^ x') (Fig 11). The
    // span delta is zero above the beat, which leaves the residue at
    // zero, so the pass starts at the beat and then only shifts
    // through the zero bytes below it.
    static constexpr std::array<std::uint8_t, 256> zeros{};
    thread_local BchResidue res;
    bch->residueStart(res);
    bch->residueAbsorbBytes(res, delta, beatLen);
    for (std::size_t below = lo - word * spanLen; below != 0;) {
        const std::size_t n = std::min(below, zeros.size());
        bch->residueAbsorbBytes(res, zeros.data(), n);
        below -= n;
    }
    for (unsigned i = 0; i < codeStride; ++i) {
        if (landed & Code)
            codeBits[word * codeStride + i] ^= res.rem[i];
        if (landed & Golden)
            goldenCode[word * codeStride + i] ^= res.rem[i];
    }
}

ScrubWordResult
VlewStore::scrubWord(std::size_t word)
{
    ScrubWordResult out;
    Verdict &verdict = verdicts[word];
    if (verdict != Verdict::Unknown) { // the bits have not changed
        out.corrections = verdict == Verdict::Clean ? 0 : -1;
        return out;
    }

    const unsigned r = bch->r();
    std::uint8_t *data = &media[word * spanLen];
    std::uint64_t *check = code(word);

    // One streaming pass over the stored bits classifies the word:
    // [code | data] absorbed from the highest coefficient down.
    BchResidue res;
    bch->residueStart(res);
    bch->residueAbsorbBytes(res, data, spanLen);
    bch->residueAbsorbBits(res, check, r);

    if (bch->residueIsZero(res)) {
        verdict = Verdict::Clean; // no syndrome work at all
        return out;
    }

    const auto dec = bch->solveFromResidue(res);
    if (dec.status == DecodeStatus::Uncorrectable) {
        verdict = Verdict::Uncorrectable;
        out.corrections = -1;
        return out;
    }
    // Flip the error bits in place instead of re-materialising the
    // codeword, then re-assert the stuck cells.
    for (const std::uint32_t pos : dec.positions) {
        if (pos < r) {
            check[pos >> 6] ^= 1ull << (pos & 63);
        } else {
            const std::uint32_t off = pos - r;
            data[off >> 3] ^= static_cast<std::uint8_t>(1u << (off & 7));
            out.changedBlocks |= 1ull << (off / (8 * beatLen));
        }
    }
    out.corrections = static_cast<int>(dec.corrections);
    assertStuck(word * spanLen, (word + 1) * spanLen);
    return out;
}

void
VlewStore::reencode(std::size_t word, unsigned parts)
{
    const auto encode = [&](const std::vector<std::uint8_t> &data,
                            std::vector<std::uint64_t> &check) {
        BchResidue res;
        bch->residueStart(res);
        bch->residueAbsorbBytes(res, &data[word * spanLen], spanLen);
        std::copy(res.rem.begin(), res.rem.end(),
                  check.begin() +
                      static_cast<std::ptrdiff_t>(word * codeStride));
    };
    if (parts & Code) {
        forget(word);
        encode(media, codeBits);
    }
    if (parts & Golden)
        encode(golden, goldenCode);
}

void
VlewStore::setBeat(std::size_t beat, const std::uint8_t *bytes,
                   unsigned parts)
{
    if (parts & Data) {
        forget(beat / beatsPerWord());
        std::memcpy(&media[beat * beatLen], bytes, beatLen);
    }
    if (parts & Golden)
        std::memcpy(&golden[beat * beatLen], bytes, beatLen);
}

void
VlewStore::zeroWord(std::size_t word, unsigned parts)
{
    const auto span = static_cast<std::ptrdiff_t>(word * spanLen);
    const auto check = static_cast<std::ptrdiff_t>(word * codeStride);
    if (parts & (Data | Code))
        forget(word);
    if (parts & Data)
        std::fill_n(media.begin() + span, spanLen, 0);
    if (parts & Code)
        std::fill_n(codeBits.begin() + check, codeStride, 0);
    if (parts & Golden) {
        std::fill_n(golden.begin() + span, spanLen, 0);
        std::fill_n(goldenCode.begin() + check, codeStride, 0);
    }
}

void
VlewStore::corruptByte(std::size_t beat, unsigned byte,
                       std::uint8_t mask)
{
    NVCK_ASSERT(byte < beatLen, "byte out of range");
    forget(beat / beatsPerWord());
    media[beat * beatLen + byte] ^= mask;
}

std::uint64_t
VlewStore::injectErrors(Rng &rng, double rber)
{
    if (rber <= 0.0)
        return 0;
    const unsigned r = bch->r();
    const std::uint64_t data_bits =
        static_cast<std::uint64_t>(media.size()) * 8;
    const std::uint64_t total_bits =
        data_bits + static_cast<std::uint64_t>(numWords) * r;
    std::uint64_t flipped = 0;
    std::uint64_t pos = 0;
    for (;;) {
        pos += rng.geometric(rber);
        if (pos > total_bits)
            break;
        const std::uint64_t idx = pos - 1;
        if (idx < data_bits) {
            forget(idx / 8 / spanLen);
            media[idx / 8] ^= static_cast<std::uint8_t>(1u << (idx % 8));
        } else {
            const std::uint64_t cidx = idx - data_bits;
            const std::uint64_t bit = cidx % r;
            forget(cidx / r);
            code(cidx / r)[bit >> 6] ^= 1ull << (bit & 63);
        }
        ++flipped;
    }
    return flipped;
}

void
VlewStore::randomize(std::size_t first, std::size_t count, Rng &rng)
{
    forget(first, count);
    for (std::size_t i = first * spanLen; i < (first + count) * spanLen;
         ++i)
        media[i] = static_cast<std::uint8_t>(rng.next() & 0xFF);
    // Each code word draws like BitVec::randomize: whole 64-bit words,
    // tail bits beyond r masked off.
    const unsigned tail = bch->r() & 63;
    for (std::size_t w = first; w < first + count; ++w) {
        std::uint64_t *check = code(w);
        for (unsigned i = 0; i < codeStride; ++i)
            check[i] = rng.next();
        if (tail != 0)
            check[codeStride - 1] &= (1ull << tail) - 1;
    }
}

void
VlewStore::setStuckBit(std::size_t byte, unsigned bit, bool value)
{
    NVCK_ASSERT(byte < media.size(), "byte index out of range");
    NVCK_ASSERT(bit < 8, "bit out of range");
    const auto m = static_cast<std::uint8_t>(1u << bit);
    forget(byte / spanLen);
    stuckMaskBytes[byte] |= m;
    if (value)
        stuckValBytes[byte] |= m;
    else
        stuckValBytes[byte] &= static_cast<std::uint8_t>(~m);
    assertStuck(byte, byte + 1);
}

void
VlewStore::clearStuck(std::size_t first, std::size_t count)
{
    forget(first, count);
    const auto lo = static_cast<std::ptrdiff_t>(first * spanLen);
    const std::size_t n = count * spanLen;
    std::fill_n(stuckMaskBytes.begin() + lo, n, 0);
    std::fill_n(stuckValBytes.begin() + lo, n, 0);
}

void
VlewStore::loadGolden()
{
    for (std::size_t w = 0; w < numWords; ++w)
        reencode(w, Golden);
    media = golden;
    codeBits = goldenCode;
    forget(0, numWords);
}

void
VlewStore::adoptMedia()
{
    golden = media;
    goldenCode = codeBits;
}

} // namespace nvck
