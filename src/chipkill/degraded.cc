#include "degraded.hh"

#include <algorithm>
#include <cstring>

#include "chipkill/pm_rank.hh"
#include "chipkill/scrub.hh"
#include "common/log.hh"

namespace nvck {

DegradedRank::DegradedRank(unsigned num_blocks)
    : numBlocks(num_blocks),
      numVlews(num_blocks / blocksPerVlew()),
      media(vlewCodec(), numVlews, blockBytes),
      poisonedVlew(numVlews, false)
{
    NVCK_ASSERT(numBlocks % blocksPerVlew() == 0,
                "block count must be a multiple of the striped span");
}

void
DegradedRank::initialize(Rng &rng)
{
    std::uint8_t data[blockBytes];
    for (unsigned b = 0; b < numBlocks; ++b) {
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
        media.setBeat(b, data, VlewStore::Golden);
    }
    media.loadGolden();
}

DegradedRank
DegradedRank::takeOver(const PmRank &healthy, unsigned failed_chip)
{
    NVCK_ASSERT(failed_chip < healthy.chips(),
                "failed chip out of range");
    DegradedRank out(healthy.blocks());
    // The scrub has already rebuilt the failed chip's contents; carry
    // the logical block data over and re-encode the striped VLEWs.
    std::uint8_t data[blockBytes];
    for (unsigned b = 0; b < healthy.blocks(); ++b) {
        healthy.goldenBlock(b, data);
        out.media.setBeat(b, data, VlewStore::Golden);
    }
    out.media.loadGolden();
    return out;
}

void
DegradedRank::writeBlock(unsigned block, const std::uint8_t *new_data)
{
    applyTornWrite(block, new_data, /*code_applied=*/true);
}

void
DegradedRank::applyTornWrite(unsigned block,
                             const std::uint8_t *new_data,
                             bool code_applied)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    std::uint8_t delta[blockBytes];
    const std::uint8_t *gold = media.goldenBeat(block);
    for (unsigned b = 0; b < blockBytes; ++b)
        delta[b] = new_data[b] ^ gold[b];
    media.applyDelta(block, delta,
                     VlewStore::Data | VlewStore::Golden |
                         (code_applied ? VlewStore::Code : 0u));
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

    // Without the RS tier every errored read needs the VLEW. The word
    // scrub reports a clean word without any decode (and from its
    // verdict memo when the span is unchanged), so only a dirty word
    // counts as a VLEW use.
    const auto res = media.scrubWord(vlew);
    if (res.corrections != 0) {
        result.usedVlew = true;
        if (res.corrections < 0) {
            result.failed = true;
            result.outcome = RecoveryOutcome::DetectedUE;
            recCounters.count(result.outcome);
            return result;
        }
        result.corrections = static_cast<unsigned>(res.corrections);
        result.outcome = RecoveryOutcome::FellBackToVlew;
        recCounters.count(result.outcome);
    }
    std::memcpy(out, media.beat(block), blockBytes);
    result.dataCorrect =
        std::memcmp(out, media.goldenBeat(block), blockBytes) == 0;
    return result;
}

RecoveryOutcome
DegradedRank::scrub()
{
    bool any_lost = false;
    // Batched sweep (scrub.hh): bit errors and in-budget torn writes
    // are corrected in place; poisoned spans are skipped and only the
    // uncorrectable spans come back for policy. Poisoning happens here,
    // after the parallel barrier, because the bit-packed flag vector
    // must not see racing writers.
    const auto outcomes = ScrubEngine().sweep(media, poisonedVlew);
    for (unsigned v = 0; v < numVlews; ++v) {
        if (poisonedVlew[v])
            continue;
        if (outcomes[v].corrections < 0) {
            // Without an RS tier there is nothing left to resolve the
            // span with; zero it and report the loss instead of
            // leaving silent garbage behind.
            media.zeroWord(v, VlewStore::Data | VlewStore::Code);
            poisonedVlew[v] = true;
            any_lost = true;
            recCounters.count(RecoveryOutcome::DetectedUE);
        }
    }
    // The survivors are the ground truth now (a torn write may have
    // legitimately rolled back to the old data).
    media.adoptMedia();
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
    media.zeroWord(vlew, VlewStore::Data | VlewStore::Code |
                             VlewStore::Golden);
    poisonedVlew[vlew] = true;
    recCounters.count(RecoveryOutcome::DetectedUE);
}

unsigned
DegradedRank::poisonedSpans() const
{
    return static_cast<unsigned>(
        std::count(poisonedVlew.begin(), poisonedVlew.end(), true));
}

DegradedSnapshot
DegradedRank::snapshot() const
{
    return {media, poisonedVlew};
}

void
DegradedRank::restore(const DegradedSnapshot &snap)
{
    NVCK_ASSERT(snap.media.words() == media.words(),
                "snapshot from a different rank geometry");
    media = snap.media;
    poisonedVlew = snap.poisonedVlew;
}

std::uint64_t
DegradedRank::injectErrors(Rng &rng, double rber)
{
    return media.injectErrors(rng, rber);
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
    return media.isPristine();
}

void
DegradedRank::goldenBlock(unsigned block, std::uint8_t *out) const
{
    std::memcpy(out, media.goldenBeat(block), blockBytes);
}

} // namespace nvck
