#include "bch.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <set>

#include "common/log.hh"

namespace nvck {

namespace {

/** Longest cyclotomic coset, hence the largest minimal-polynomial
 *  degree: m <= 16. */
constexpr unsigned kMaxCosetSize = 16;

/**
 * Minimal polynomial (over GF(2)) of alpha^e as a bit mask (bit i =
 * coefficient of x^i): the product of (x + alpha^c) over the
 * cyclotomic coset of e modulo 2^m - 1, multiplied out in place.
 */
std::uint32_t
minimalPoly(const Gf2m &gf, std::uint32_t e)
{
    const std::uint32_t n = gf.order();
    std::array<GfElem, kMaxCosetSize + 1> prod{};
    prod[0] = 1;
    unsigned deg = 0;
    std::uint32_t c = e % n;
    do {
        const GfElem root = gf.alphaPow(c);
        ++deg;
        for (unsigned j = deg; j > 0; --j)
            prod[j] = prod[j - 1] ^ gf.mul(prod[j], root);
        prod[0] = gf.mul(prod[0], root);
        c = static_cast<std::uint32_t>((2ull * c) % n);
    } while (c != e % n);

    std::uint32_t mask = 0;
    for (unsigned i = 0; i <= deg; ++i) {
        NVCK_ASSERT(prod[i] == 0 || prod[i] == 1,
                    "minimal polynomial has non-binary coefficient");
        mask |= prod[i] << i;
    }
    return mask;
}

/** Smallest coset member, used to deduplicate minimal polynomials. */
std::uint32_t
cosetLeader(std::uint32_t e, std::uint32_t n)
{
    std::uint32_t leader = e % n;
    std::uint32_t c = leader;
    do {
        c = static_cast<std::uint32_t>((2ull * c) % n);
        leader = std::min(leader, c);
    } while (c != e % n);
    return leader;
}

unsigned
pickFieldDegree(unsigned data_bits, unsigned correct_bits)
{
    for (unsigned m = 3; m <= 16; ++m) {
        if (data_bits + correct_bits * m <= (1u << m) - 1)
            return m;
    }
    NVCK_FATAL("no GF(2^m) with m <= 16 fits k=", data_bits,
               " t=", correct_bits);
}

/**
 * Compile-time-width core of the shifted-domain wide residue run: the
 * whole W-word remainder lives in registers for the entire run of
 * chunks instead of bouncing through memory once per step. In the
 * shifted domain one step is
 *   x = rem[W-1] ^ chunk;  word-shift rem up;  XOR eight lane rows
 * with no cross-word extraction and no top-word masking. @p next(c)
 * must return the c-th chunk in high-to-low absorption order.
 */
template <unsigned W, typename Next>
void
runWideFixed(std::uint64_t *state, const std::uint64_t *wtab,
             std::size_t nchunks, Next &&next)
{
    std::uint64_t rem[W];
    for (unsigned w = 0; w < W; ++w)
        rem[w] = state[w];
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::uint64_t x = rem[W - 1] ^ next(c);
        for (unsigned w = W; w-- > 1;)
            rem[w] = rem[w - 1];
        rem[0] = 0;
        for (unsigned b = 0; b < 8; ++b) {
            const std::uint64_t *row =
                &wtab[(static_cast<std::size_t>(b) * 256 +
                       ((x >> (8 * b)) & 0xFF)) *
                      W];
            for (unsigned w = 0; w < W; ++w)
                rem[w] ^= row[w];
        }
    }
    for (unsigned w = 0; w < W; ++w)
        state[w] = rem[w];
}

/** Width dispatch for runWideFixed, with a runtime-width fallback. */
template <typename Next>
void
runWide(std::uint64_t *state, const std::uint64_t *wtab, unsigned width,
        std::size_t nchunks, Next &&next)
{
    switch (width) {
      case 1:
        return runWideFixed<1>(state, wtab, nchunks, next);
      case 2:
        return runWideFixed<2>(state, wtab, nchunks, next);
      case 3:
        return runWideFixed<3>(state, wtab, nchunks, next);
      case 4:
        return runWideFixed<4>(state, wtab, nchunks, next);
      case 5:
        return runWideFixed<5>(state, wtab, nchunks, next);
      case 6:
        return runWideFixed<6>(state, wtab, nchunks, next);
      default:
        break;
    }
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::uint64_t x = state[width - 1] ^ next(c);
        for (unsigned w = width; w-- > 1;)
            state[w] = state[w - 1];
        state[0] = 0;
        for (unsigned b = 0; b < 8; ++b) {
            const std::uint64_t *row =
                &wtab[(static_cast<std::size_t>(b) * 256 +
                       ((x >> (8 * b)) & 0xFF)) *
                      width];
            for (unsigned w = 0; w < width; ++w)
                state[w] ^= row[w];
        }
    }
}

} // namespace

BchCodec::BchCodec(unsigned data_bits, unsigned correct_bits,
                   unsigned field_degree)
    : dataBits(data_bits),
      correctBits(correct_bits),
      checkBits(0),
      gf(field_degree ? field_degree
                      : pickFieldDegree(data_bits, correct_bits))
{
    NVCK_ASSERT(correct_bits >= 1 && correct_bits <= kMaxCorrectBits,
                "BCH t out of range 1..", kMaxCorrectBits);

    // Generator = product of the distinct minimal polynomials of
    // alpha^1, alpha^3, ..., alpha^(2t-1): each factor is a mask of
    // at most 17 bits, multiplied in by shifted XORs of the words.
    std::set<std::uint32_t> leaders;
    gen = {1};
    for (unsigned i = 1; i <= 2 * correct_bits - 1; i += 2) {
        const std::uint32_t leader = cosetLeader(i, gf.order());
        if (!leaders.insert(leader).second)
            continue;
        const std::uint32_t factor = minimalPoly(gf, i);
        std::vector<std::uint64_t> prod(gen.size() + 1, 0);
        for (unsigned b = 0; b <= kMaxCosetSize; ++b) {
            if (((factor >> b) & 1) == 0)
                continue;
            for (std::size_t w = 0; w < gen.size(); ++w) {
                prod[w] ^= gen[w] << b;
                if (b != 0)
                    prod[w + 1] ^= gen[w] >> (64 - b);
            }
        }
        while (prod.back() == 0)
            prod.pop_back();
        gen = std::move(prod);
    }
    checkBits = static_cast<unsigned>(64 * (gen.size() - 1) + 63 -
                                      std::countl_zero(gen.back()));
    NVCK_ASSERT(dataBits + checkBits <= gf.order(),
                "shortened BCH does not fit in GF(2^", gf.m(), ")");

    // Keep only the low part of the generator (without the x^r term):
    // that is what the LFSR XORs into the remainder on feedback.
    genWords = gen;
    genWords.resize((checkBits + 64) / 64, 0);
    genWords[checkBits >> 6] &= ~(1ull << (checkBits & 63));

    remWords = (checkBits + 63) / 64;
    remTopMask = (checkBits & 63) != 0
                     ? (1ull << (checkBits & 63)) - 1
                     : ~0ull;

    // Chien-search strides alpha^(-j) = alpha^(order - j), hoisted out
    // of the per-position loop.
    chienStride.resize(correctBits + 1, 1);
    for (unsigned j = 1; j <= correctBits; ++j)
        chienStride[j] = gf.alphaPow(gf.order() - j);

    // Residue-to-syndrome fixups: rem = (c(x) * x^r) mod g evaluates at
    // a root alpha^j of g to c(alpha^j) * alpha^(rj), so S_j is
    // rem(alpha^j) scaled by alpha^(-rj).
    resFix.resize(correctBits);
    const std::uint64_t ord = gf.order();
    const std::uint64_t rneg = (ord - checkBits % ord) % ord;
    for (unsigned idx = 0; idx < correctBits; ++idx)
        resFix[idx] = gf.alphaPow((rneg * (2 * idx + 1)) % ord);

    buildTables();
}

void
BchCodec::buildTables()
{
    // Slicing-by-8 remainder updates: encTable[v] = (v(x) * x^r) mod g,
    // built by feeding the byte through the reference LFSR (high bit
    // first), so the table is bit-identical to eight serial steps. The
    // byte path needs r >= 8; tiny codes keep the serial loop.
    if (checkBits >= 8) {
        encTable.assign(256u * remWords, 0);
        std::vector<std::uint64_t> rem(remWords);
        for (unsigned v = 0; v < 256; ++v) {
            std::fill(rem.begin(), rem.end(), 0);
            for (unsigned j = 8; j-- > 0;)
                stepBit(rem, ((v >> j) & 1) != 0);
            std::copy(rem.begin(), rem.end(),
                      encTable.begin() + v * remWords);
        }
    }

    // 64-bit-wide residue lanes for the streaming scrub pass: lane b
    // entry v holds (v(x) * x^(8b) * x^r) mod g, grown from the
    // encTable rows by serial x-multiplications (stepBit with a zero
    // input bit), so the lanes stay bit-identical to the reference
    // LFSR. The rows are stored pre-shifted left by 64*remWords - r
    // (the shifted domain of shiftRemUp), which makes the hot wide
    // step branch-, extraction-, and mask-free. The wide feedback
    // chunk must fit inside the remainder, so only codes with r >= 64
    // get them.
    if (checkBits >= 64) {
        const unsigned up = 64u * remWords - checkBits;
        wideTab.assign(8u * 256u * remWords, 0);
        std::vector<std::uint64_t> row(remWords);
        for (unsigned v = 0; v < 256; ++v) {
            std::copy_n(encTable.begin() + v * remWords, remWords,
                        row.begin());
            for (unsigned b = 0; b < 8; ++b) {
                if (b > 0) {
                    for (unsigned s = 0; s < 8; ++s)
                        stepBit(row, false);
                }
                std::uint64_t *dst =
                    &wideTab[(static_cast<std::size_t>(b) * 256 + v) *
                             remWords];
                if (up == 0) {
                    std::copy(row.begin(), row.end(), dst);
                    continue;
                }
                for (unsigned w = remWords; w-- > 1;)
                    dst[w] = (row[w] << up) | (row[w - 1] >> (64 - up));
                dst[0] = row[0] << up;
            }
        }
    }

    // Per-byte partial syndromes: synByteTab[j][v] = sum over set bits
    // b of v of alpha^((2j+1) * b), combined across bytes by Horner
    // steps of stride alpha^(8 * (2j+1)).
    synByteTab.assign(static_cast<std::size_t>(correctBits) * 256, 0);
    synStride.resize(correctBits);
    for (unsigned idx = 0; idx < correctBits; ++idx) {
        const std::uint64_t j = 2ull * idx + 1;
        GfElem bit_contrib[8];
        for (unsigned b = 0; b < 8; ++b)
            bit_contrib[b] = gf.alphaPow((j * b) % gf.order());
        GfElem *tab = &synByteTab[static_cast<std::size_t>(idx) * 256];
        tab[0] = 0;
        for (unsigned v = 1; v < 256; ++v)
            tab[v] = tab[v & (v - 1)] ^
                     bit_contrib[std::countr_zero(v)];
        synStride[idx] = gf.alphaPow((8 * j) % gf.order());
    }
}

void
BchCodec::stepBit(std::vector<std::uint64_t> &rem, bool in) const
{
    const unsigned top = checkBits - 1;
    const bool feedback =
        in ^ (((rem[top >> 6] >> (top & 63)) & 1) != 0);
    for (unsigned w = remWords; w-- > 1;)
        rem[w] = (rem[w] << 1) | (rem[w - 1] >> 63);
    rem[0] <<= 1;
    rem[remWords - 1] &= remTopMask;
    if (feedback) {
        for (unsigned w = 0; w < remWords; ++w)
            rem[w] ^= genWords[w];
    }
}

void
BchCodec::byteStep(std::vector<std::uint64_t> &rem,
                   unsigned in_byte) const
{
    // Slicing-by-8: with rem = low + top8 * x^(r-8),
    //   (rem * x^8 + v(x) * x^r) mod g
    //     = low * x^8  ^  ((top8 ^ v)(x) * x^r mod g)
    // and the second term is one encTable row.
    const unsigned tb_word = (checkBits - 8) >> 6;
    const unsigned tb_shift = (checkBits - 8) & 63;
    std::uint64_t f = rem[tb_word] >> tb_shift;
    if (tb_shift + 8 > 64)
        f |= rem[tb_word + 1] << (64 - tb_shift);
    const unsigned row_idx =
        static_cast<unsigned>((f ^ in_byte) & 0xFF);
    for (unsigned w = remWords; w-- > 1;)
        rem[w] = (rem[w] << 8) | (rem[w - 1] >> 56);
    rem[0] <<= 8;
    rem[remWords - 1] &= remTopMask;
    const std::uint64_t *row = &encTable[row_idx * remWords];
    for (unsigned w = 0; w < remWords; ++w)
        rem[w] ^= row[w];
}

void
BchCodec::shiftRemUp(std::vector<std::uint64_t> &rem) const
{
    const unsigned up = 64u * remWords - checkBits;
    if (up == 0)
        return;
    for (unsigned w = remWords; w-- > 1;)
        rem[w] = (rem[w] << up) | (rem[w - 1] >> (64 - up));
    rem[0] <<= up;
}

void
BchCodec::shiftRemDown(std::vector<std::uint64_t> &rem) const
{
    const unsigned up = 64u * remWords - checkBits;
    if (up == 0)
        return;
    for (unsigned w = 0; w + 1 < remWords; ++w)
        rem[w] = (rem[w] >> up) | (rem[w + 1] << (64 - up));
    rem[remWords - 1] >>= up;
}

std::vector<std::uint64_t>
BchCodec::residue(const std::vector<std::uint64_t> &words,
                  std::size_t nbits) const
{
    BchResidue state;
    residueStart(state);
    residueAbsorbBits(state, words.data(), nbits);
    return std::move(state.rem);
}

BitVec
BchCodec::encode(const BitVec &data) const
{
    NVCK_ASSERT(data.size() == dataBits, "BCH encode: bad data length");
    const BitVec check = encodeDelta(data);
    BitVec codeword(n());
    codeword.copyRange(0, check, 0, checkBits);
    codeword.copyRange(checkBits, data, 0, dataBits);
    return codeword;
}

BitVec
BchCodec::encodeDelta(const BitVec &data_delta) const
{
    NVCK_ASSERT(data_delta.size() == dataBits,
                "BCH encodeDelta: bad data length");
    const std::vector<std::uint64_t> rem =
        residue(data_delta.raw(), dataBits);
    BitVec check(checkBits);
    std::copy(rem.begin(), rem.end(), check.raw().begin());
    return check;
}

void
BchCodec::reencode(BitVec &codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "BCH reencode: bad length");
    const BitVec check = encodeDelta(extractData(codeword));
    codeword.copyRange(0, check, 0, checkBits);
}

BitVec
BchCodec::extractData(const BitVec &codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "BCH extractData: bad length");
    BitVec data(dataBits);
    data.copyRange(0, codeword, checkBits, dataBits);
    return data;
}

bool
BchCodec::isCodeword(const BitVec &codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "BCH isCodeword: bad length");
    // c(x) * x^r mod g is zero exactly when c(x) mod g is (x is
    // invertible mod g since g(0) = 1).
    const std::vector<std::uint64_t> rem = residue(codeword.raw(), n());
    return std::all_of(rem.begin(), rem.end(),
                       [](std::uint64_t w) { return w == 0; });
}

void
BchCodec::residueStart(BchResidue &state) const
{
    state.rem.assign(remWords, 0);
}

void
BchCodec::residueAbsorbBytes(BchResidue &state, const std::uint8_t *bytes,
                             std::size_t count) const
{
    auto &rem = state.rem;
    std::size_t i = count;
    if (checkBits >= 8) {
        if (!wideTab.empty() && i >= 8) {
            // Whole 8-byte chunks from the top down through the
            // register-resident wide run; the low i % 8 bytes fall
            // through to the byte step below.
            const std::size_t chunks = i / 8;
            const std::size_t low = i - 8 * chunks;
            shiftRemUp(rem);
            runWide(rem.data(), wideTab.data(), remWords, chunks,
                    [&](std::size_t c) {
                        const std::uint8_t *p =
                            bytes + low + 8 * (chunks - 1 - c);
                        std::uint64_t v = 0;
                        for (unsigned b = 0; b < 8; ++b)
                            v |= static_cast<std::uint64_t>(p[b])
                                 << (8 * b);
                        return v;
                    });
            shiftRemDown(rem);
            i = low;
        }
        while (i != 0) {
            --i;
            byteStep(rem, bytes[i]);
        }
        return;
    }
    while (i != 0) {
        --i;
        for (unsigned b = 8; b-- > 0;)
            stepBit(rem, ((bytes[i] >> b) & 1) != 0);
    }
}

void
BchCodec::residueAbsorbBits(BchResidue &state, const std::uint64_t *words,
                            std::size_t nbits) const
{
    auto &rem = state.rem;
    std::size_t i = nbits;
    if (checkBits >= 8) {
        // Leading partial byte bit-serially so the byte and chunk
        // extractions below never straddle a storage word.
        while ((i & 7) != 0) {
            --i;
            stepBit(rem, ((words[i >> 6] >> (i & 63)) & 1) != 0);
        }
        if (!wideTab.empty() && i >= 64) {
            const std::size_t chunks = i / 64;
            const std::size_t low = i - 64 * chunks;
            shiftRemUp(rem);
            runWide(rem.data(), wideTab.data(), remWords, chunks,
                    [&](std::size_t c) {
                        const std::size_t off =
                            low + 64 * (chunks - 1 - c);
                        std::uint64_t chunk =
                            words[off >> 6] >> (off & 63);
                        if ((off & 63) != 0)
                            chunk |= words[(off >> 6) + 1]
                                     << (64 - (off & 63));
                        return chunk;
                    });
            shiftRemDown(rem);
            i = low;
        }
        while (i >= 8) {
            i -= 8;
            byteStep(rem, static_cast<unsigned>(
                              (words[i >> 6] >> (i & 63)) & 0xFF));
        }
    }
    while (i != 0) {
        --i;
        stepBit(rem, ((words[i >> 6] >> (i & 63)) & 1) != 0);
    }
}

bool
BchCodec::residueIsZero(const BchResidue &state) const
{
    return std::all_of(state.rem.begin(), state.rem.end(),
                       [](std::uint64_t w) { return w == 0; });
}

void
BchCodec::syndromesFromResidue(const BchResidue &state,
                               std::span<GfElem> out) const
{
    NVCK_ASSERT(out.size() >= 2 * correctBits,
                "BCH syndromes: output shorter than 2t");
    const auto &words = state.rem;
    if (checkBits >= 8) {
        // S_{2idx+1} = sum over bytes w of alpha^(8wj) * synByteTab[byte_w],
        // folded high byte to low by Horner steps of stride alpha^(8j),
        // over the r-bit remainder instead of the n-bit codeword.
        const std::size_t n_bytes = (checkBits + 7) / 8;
        const unsigned tail_bits = checkBits & 7;
        const std::uint64_t tail_mask =
            tail_bits != 0 ? (1ull << tail_bits) - 1 : 0xFFull;
        for (unsigned idx = 0; idx < correctBits; ++idx) {
            const GfElem *tab =
                &synByteTab[static_cast<std::size_t>(idx) * 256];
            const GfElem stride = synStride[idx];
            GfElem acc = 0;
            for (std::size_t w = n_bytes; w-- > 0;) {
                const std::size_t bit = w * 8;
                std::uint64_t byte =
                    (words[bit >> 6] >> (bit & 63)) & 0xFF;
                if (w == n_bytes - 1)
                    byte &= tail_mask;
                acc = gf.mul(acc, stride) ^ tab[byte];
            }
            out[2 * idx] = gf.mul(acc, resFix[idx]);
        }
    } else {
        // Plain Horner fold over the r remainder bits, high bit first,
        // for the tiny codes (r < 8) the byte tables do not cover.
        for (unsigned idx = 0; idx < correctBits; ++idx) {
            const GfElem step = gf.alphaPow(2ull * idx + 1);
            GfElem acc = 0;
            for (unsigned i = checkBits; i-- > 0;)
                acc = gf.mul(acc, step) ^
                      static_cast<GfElem>((words[i >> 6] >> (i & 63)) & 1);
            out[2 * idx] = gf.mul(acc, resFix[idx]);
        }
    }
    for (unsigned j = 2; j <= 2 * correctBits; j += 2) {
        const GfElem half = out[j / 2 - 1];
        out[j - 1] = gf.mul(half, half);
    }
}

bool
BchCodec::bmLocator(const GfElem *syn, GfElem *lambda, unsigned &len) const
{
    // lambda and prev hold 2t + 1 coefficients: every polynomial keeps
    // degree <= the register length, which stops at 2t.
    const unsigned top = 2 * correctBits;
    std::array<GfElem, 2 * kMaxCorrectBits + 1> prev{};
    std::fill_n(lambda, top + 1, 0);
    lambda[0] = 1;
    prev[0] = 1;
    unsigned l = 0;
    unsigned shift = 1;
    GfElem prev_disc = 1;
    for (unsigned step = 0; step < top; ++step) {
        if ((step & 1) != 0) {
            // Berlekamp's binary trick: this step consumes the even
            // syndrome S_{step+1} = S_{(step+1)/2}^2, whose
            // discrepancy is structurally zero for any received word
            // of a binary code, so the full iteration always lands in
            // the disc == 0 branch here.
            ++shift;
            continue;
        }
        GfElem disc = syn[step];
        for (unsigned i = 1; i <= l; ++i)
            disc ^= gf.mul(lambda[i], syn[step - i]);
        if (disc == 0) {
            ++shift;
            continue;
        }
        // lambda += (disc / prev_disc) * x^shift * prev, high to low so
        // prev[j - shift] is still the old prev when read and a length
        // change can save the old lambda[j] into prev[j] as it goes.
        const GfElem factor = gf.div(disc, prev_disc);
        const bool grows = 2 * l <= step;
        for (unsigned j = top + 1; j-- > 0;) {
            const GfElem old = lambda[j];
            if (j >= shift)
                lambda[j] ^= gf.mul(factor, prev[j - shift]);
            if (grows)
                prev[j] = old;
        }
        if (grows) {
            prev_disc = disc;
            l = step + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
        // The register length never shrinks, so once it exceeds t the
        // word is uncorrectable no matter what the remaining steps do.
        if (l > correctBits)
            break;
    }
    len = l;
    if (l > correctBits)
        return false;
    unsigned deg = top;
    while (deg > 0 && lambda[deg] == 0)
        --deg;
    return deg == l;
}

bool
BchCodec::chienSearch(const GfElem *lambda, unsigned nu,
                      std::vector<std::uint32_t> &positions) const
{
    positions.clear();
    // A locator that does not split into distinct linear factors has
    // fewer than nu distinct roots anywhere in the field, let alone in
    // [0, n): reject it before the O(n * nu) scan. This is the common
    // case for a dead chip's VLEW, whose random syndromes give a
    // degree-t locator.
    if (!locatorSplits(gf, std::span(lambda, nu + 1)))
        return false;

    // term[j] tracks lambda_j * alpha^(-i*j) as i advances.
    std::array<GfElem, kMaxCorrectBits + 1> term{};
    std::copy_n(lambda, nu + 1, term.begin());
    const unsigned n_bits = n();
    for (unsigned i = 0; i < n_bits; ++i) {
        GfElem sum = 0;
        for (unsigned j = 0; j <= nu; ++j)
            sum ^= term[j];
        if (sum == 0) {
            positions.push_back(i);
            // A degree-nu locator has at most nu roots in the whole
            // field: after the nu-th one the rest of the scan can only
            // confirm there are no more.
            if (positions.size() == nu)
                return true;
        }
        for (unsigned j = 1; j <= nu; ++j)
            term[j] = gf.mul(term[j], chienStride[j]);
    }
    // Fewer than nu roots in the shortened range: some root sits at a
    // position >= n, so the pattern is uncorrectable.
    return positions.size() == nu;
}

BchDecodeResult
BchCodec::solveFromResidue(const BchResidue &state) const
{
    BchDecodeResult result;
    if (residueIsZero(state))
        return result; // Clean

    std::array<GfElem, 2 * kMaxCorrectBits> syn{};
    syndromesFromResidue(state, syn);
    std::array<GfElem, 2 * kMaxCorrectBits + 1> lambda{};
    unsigned nu = 0;
    std::vector<std::uint32_t> positions;
    if (!bmLocator(syn.data(), lambda.data(), nu) ||
        !chienSearch(lambda.data(), nu, positions)) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }
    result.status = DecodeStatus::Corrected;
    result.corrections = nu;
    result.positions = std::move(positions);
    return result;
}

BchDecodeResult
BchCodec::decode(BitVec &codeword) const
{
    NVCK_ASSERT(codeword.size() == n(), "BCH decode: bad length");
    BchResidue state;
    residueStart(state);
    residueAbsorbBits(state, codeword.raw().data(), n());
    BchDecodeResult result = solveFromResidue(state);
    for (const std::uint32_t pos : result.positions)
        codeword.flip(pos);
    return result;
}

} // namespace nvck
