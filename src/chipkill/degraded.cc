#include "degraded.hh"

#include <cstring>

#include "chipkill/pm_rank.hh"
#include "chipkill/scrub.hh"
#include "common/log.hh"

namespace nvck {

DegradedRank::DegradedRank(unsigned num_blocks,
                           const ProposalParams &params)
    : geom(params),
      numBlocks(num_blocks),
      vlewCodec(params.vlewDataBytes * 8, params.vlewT)
{
    NVCK_ASSERT(numBlocks % blocksPerVlew() == 0,
                "block count must be a multiple of the striped span");
    numVlews = numBlocks / blocksPerVlew();
    store.assign(static_cast<std::size_t>(numBlocks) * blockBytes, 0);
    golden = store;
    codeStore.assign(numVlews, BitVec(vlewCodec.r()));
    goldenCode = codeStore;
    poisonedVlew.assign(numVlews, false);
}

void
DegradedRank::initialize(Rng &rng)
{
    for (auto &byte : golden)
        byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
    for (unsigned v = 0; v < numVlews; ++v) {
        BitVec data(vlewCodec.k());
        data.setBytes(
            0, &golden[static_cast<std::size_t>(v) * geom.vlewDataBytes],
            geom.vlewDataBytes);
        const BitVec check = vlewCodec.encodeDelta(data);
        goldenCode[v].copyRange(0, check, 0, vlewCodec.r());
    }
    store = golden;
    codeStore = goldenCode;
}

DegradedRank
DegradedRank::takeOver(const PmRank &healthy, unsigned failed_chip)
{
    NVCK_ASSERT(failed_chip < healthy.chips(),
                "failed chip out of range");
    DegradedRank out(healthy.blocks());
    // The scrub has already rebuilt the failed chip's contents; carry
    // the logical block data over and re-encode the striped VLEWs.
    for (unsigned b = 0; b < healthy.blocks(); ++b)
        healthy.goldenBlock(
            b, &out.golden[static_cast<std::size_t>(b) * blockBytes]);
    for (unsigned v = 0; v < out.numVlews; ++v) {
        BitVec data(out.vlewCodec.k());
        data.setBytes(0,
                      &out.golden[static_cast<std::size_t>(v) *
                                  out.geom.vlewDataBytes],
                      out.geom.vlewDataBytes);
        const BitVec check = out.vlewCodec.encodeDelta(data);
        out.goldenCode[v].copyRange(0, check, 0, out.vlewCodec.r());
    }
    out.store = out.golden;
    out.codeStore = out.goldenCode;
    return out;
}

BitVec
DegradedRank::assembleVlew(unsigned vlew) const
{
    const unsigned r = vlewCodec.r();
    BitVec cw(vlewCodec.n());
    cw.copyRange(0, codeStore[vlew], 0, r);
    cw.setBytes(
        r, &store[static_cast<std::size_t>(vlew) * geom.vlewDataBytes],
        geom.vlewDataBytes);
    return cw;
}

void
DegradedRank::storeVlew(unsigned vlew, const BitVec &cw)
{
    const unsigned r = vlewCodec.r();
    codeStore[vlew].copyRange(0, cw, 0, r);
    cw.getBytes(
        r, &store[static_cast<std::size_t>(vlew) * geom.vlewDataBytes],
        geom.vlewDataBytes);
}

void
DegradedRank::writeBlock(unsigned block, const std::uint8_t *new_data)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    const unsigned vlew = block / blocksPerVlew();
    const unsigned offset =
        (block % blocksPerVlew()) * blockBytes;

    std::uint8_t delta[blockBytes];
    std::uint8_t *gold =
        &golden[static_cast<std::size_t>(block) * blockBytes];
    std::uint8_t *stored =
        &store[static_cast<std::size_t>(block) * blockBytes];
    for (unsigned b = 0; b < blockBytes; ++b) {
        delta[b] = new_data[b] ^ gold[b];
        gold[b] ^= delta[b];
        stored[b] ^= delta[b];
    }

    BitVec delta_word(vlewCodec.k());
    delta_word.setBytes(static_cast<std::size_t>(offset) * 8, delta,
                        blockBytes);
    const BitVec code_delta = vlewCodec.encodeDelta(delta_word);
    codeStore[vlew] ^= code_delta;
    goldenCode[vlew] ^= code_delta;
}

void
DegradedRank::applyTornWrite(unsigned block,
                             const std::uint8_t *new_data,
                             bool code_applied)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    const unsigned vlew = block / blocksPerVlew();
    const unsigned offset = (block % blocksPerVlew()) * blockBytes;

    std::uint8_t delta[blockBytes];
    std::uint8_t *gold =
        &golden[static_cast<std::size_t>(block) * blockBytes];
    std::uint8_t *stored =
        &store[static_cast<std::size_t>(block) * blockBytes];
    for (unsigned b = 0; b < blockBytes; ++b) {
        delta[b] = new_data[b] ^ gold[b];
        gold[b] ^= delta[b];
        stored[b] ^= delta[b];
    }

    BitVec delta_word(vlewCodec.k());
    delta_word.setBytes(static_cast<std::size_t>(offset) * 8, delta,
                        blockBytes);
    const BitVec code_delta = vlewCodec.encodeDelta(delta_word);
    goldenCode[vlew] ^= code_delta;
    if (code_applied)
        codeStore[vlew] ^= code_delta;
}

DegradedReadResult
DegradedRank::readBlock(unsigned block, std::uint8_t *out)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    DegradedReadResult result;
    const unsigned vlew = block / blocksPerVlew();

    if (poisonedVlew[vlew]) {
        result.failed = true;
        result.outcome = RecoveryOutcome::DetectedUE;
        recCounters.count(result.outcome);
        return result;
    }

    // Without the RS tier every errored read needs the VLEW. decode()
    // reports a clean word after its residue pass alone, so only a
    // dirty word counts as a VLEW use.
    BitVec cw = assembleVlew(vlew);
    const auto res = vlewCodec.decode(cw);
    if (res.status != DecodeStatus::Clean) {
        result.usedVlew = true;
        if (res.status == DecodeStatus::Uncorrectable) {
            result.failed = true;
            result.outcome = RecoveryOutcome::DetectedUE;
            recCounters.count(result.outcome);
            return result;
        }
        result.corrections = res.corrections;
        storeVlew(vlew, cw);
        result.outcome = RecoveryOutcome::FellBackToVlew;
        recCounters.count(result.outcome);
    }
    std::memcpy(out,
                &store[static_cast<std::size_t>(block) * blockBytes],
                blockBytes);
    result.dataCorrect =
        std::memcmp(out,
                    &golden[static_cast<std::size_t>(block) *
                            blockBytes],
                    blockBytes) == 0;
    return result;
}

RecoveryOutcome
DegradedRank::scrub()
{
    bool any_lost = false;
    // Batched sweep (scrub.hh): bit errors and in-budget torn writes
    // are corrected in place; only the uncorrectable spans come back
    // for policy. Poisoning happens here, after the parallel barrier,
    // because the bit-packed flag vector must not see racing writers.
    const auto outcomes = ScrubEngine().sweep(*this);
    for (unsigned v = 0; v < numVlews; ++v) {
        if (poisonedVlew[v])
            continue;
        if (outcomes[v].corrections < 0) {
            // Without an RS tier there is nothing left to resolve the
            // span with; zero it and report the loss instead of
            // leaving silent garbage behind.
            std::memset(&store[static_cast<std::size_t>(v) *
                               geom.vlewDataBytes],
                        0, geom.vlewDataBytes);
            codeStore[v] = BitVec(vlewCodec.r());
            poisonedVlew[v] = true;
            any_lost = true;
            recCounters.count(RecoveryOutcome::DetectedUE);
        }
    }
    // The survivors are the ground truth now (a torn write may have
    // legitimately rolled back to the old data).
    golden = store;
    goldenCode = codeStore;
    return any_lost ? RecoveryOutcome::DetectedUE
                    : RecoveryOutcome::Corrected;
}

bool
DegradedRank::isPoisoned(unsigned block) const
{
    return poisonedVlew.at(block / blocksPerVlew());
}

void
DegradedRank::poisonSpan(unsigned vlew)
{
    NVCK_ASSERT(vlew < numVlews, "span out of range");
    if (poisonedVlew[vlew])
        return;
    std::memset(
        &store[static_cast<std::size_t>(vlew) * geom.vlewDataBytes], 0,
        geom.vlewDataBytes);
    std::memset(
        &golden[static_cast<std::size_t>(vlew) * geom.vlewDataBytes],
        0, geom.vlewDataBytes);
    codeStore[vlew] = BitVec(vlewCodec.r());
    goldenCode[vlew] = codeStore[vlew];
    poisonedVlew[vlew] = true;
    recCounters.count(RecoveryOutcome::DetectedUE);
}

unsigned
DegradedRank::poisonedSpans() const
{
    unsigned n = 0;
    for (const bool p : poisonedVlew)
        if (p)
            ++n;
    return n;
}

DegradedSnapshot
DegradedRank::snapshot() const
{
    DegradedSnapshot snap;
    snap.store = store;
    snap.golden = golden;
    snap.codeStore = codeStore;
    snap.goldenCode = goldenCode;
    snap.poisonedVlew = poisonedVlew;
    return snap;
}

void
DegradedRank::restore(const DegradedSnapshot &snap)
{
    NVCK_ASSERT(snap.store.size() == store.size(),
                "snapshot from a different rank geometry");
    store = snap.store;
    golden = snap.golden;
    codeStore = snap.codeStore;
    goldenCode = snap.goldenCode;
    poisonedVlew = snap.poisonedVlew;
}

std::uint64_t
DegradedRank::injectErrors(Rng &rng, double rber)
{
    if (rber <= 0.0)
        return 0;
    std::uint64_t flipped = 0;
    const std::uint64_t data_bits =
        static_cast<std::uint64_t>(store.size()) * 8;
    const std::uint64_t total_bits =
        data_bits +
        static_cast<std::uint64_t>(numVlews) * vlewCodec.r();
    std::uint64_t pos = 0;
    for (;;) {
        pos += rng.geometric(rber);
        if (pos > total_bits)
            break;
        const std::uint64_t idx = pos - 1;
        if (idx < data_bits)
            store[idx / 8] ^= static_cast<std::uint8_t>(1u
                                                        << (idx % 8));
        else {
            const std::uint64_t cidx = idx - data_bits;
            codeStore[cidx / vlewCodec.r()].flip(
                static_cast<std::size_t>(cidx % vlewCodec.r()));
        }
        ++flipped;
    }
    return flipped;
}

unsigned
DegradedRank::correctionFetchBlocks() const
{
    // Three sibling blocks plus the code bits (Section V-E: "using it
    // to correct bit errors only requires fetching four data blocks").
    return blocksPerVlew() - 1 + geom.codeBlocksPerVlew();
}

bool
DegradedRank::isPristine() const
{
    return store == golden && codeStore == goldenCode;
}

void
DegradedRank::goldenBlock(unsigned block, std::uint8_t *out) const
{
    std::memcpy(out,
                &golden[static_cast<std::size_t>(block) * blockBytes],
                blockBytes);
}

} // namespace nvck
