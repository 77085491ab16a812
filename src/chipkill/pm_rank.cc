#include "pm_rank.hh"

#include <algorithm>
#include <cstring>

#include "chipkill/scrub.hh"
#include "common/log.hh"
#include "ecc/crc.hh"

namespace nvck {

std::shared_ptr<const BchCodec>
vlewCodec()
{
    constexpr ProposalParams geom{};
    static const auto codec = std::make_shared<const BchCodec>(
        geom.vlewDataBytes * 8, geom.vlewT);
    return codec;
}

const RsCodec &
blockRsCodec()
{
    constexpr ProposalParams geom{};
    static const RsCodec codec(geom.rsDataBytes, geom.rsCheckBytes);
    return codec;
}

PmRank::PmRank(unsigned num_blocks)
    : numBlocks(num_blocks),
      dataChips(geom.dataChips),
      blocksPerVlew(geom.blocksPerVlew()),
      numVlews(num_blocks / blocksPerVlew),
      rsCodec(blockRsCodec()),
      media(vlewCodec(),
            static_cast<std::size_t>(dataChips + 1) * numVlews,
            chipBeatBytes),
      disabled(num_blocks, false),
      poisoned(num_blocks, false)
{
    NVCK_ASSERT(numBlocks % blocksPerVlew == 0,
                "block count must be a multiple of the VLEW span");
    NVCK_ASSERT(rsCodec.n() == RsWord().size(),
                "RS word must hold the check beat and the block");
}

void
PmRank::setStuckBit(unsigned chip, std::uint64_t byte_index,
                    unsigned bit, bool value)
{
    NVCK_ASSERT(chip <= dataChips, "chip out of range");
    NVCK_ASSERT(byte_index <
                    static_cast<std::uint64_t>(numBlocks) * chipBeatBytes,
                "byte index out of range");
    media.setStuckBit(beatOf(chip, 0) * chipBeatBytes + byte_index, bit,
                      value);
}

unsigned
PmRank::writeVerify(unsigned block, const std::uint8_t *new_data)
{
    writeBlock(block, new_data);
    // Re-read the raw stored beats right after the write [86]; any
    // mismatch against the intended value is a worn-out cell.
    unsigned bad_bits = 0;
    for (unsigned chip = 0; chip <= dataChips; ++chip) {
        const std::uint8_t *stored = chipBeat(chip, block);
        const std::uint8_t *intended = goldenBeat(chip, block);
        for (unsigned b = 0; b < chipBeatBytes; ++b) {
            std::uint8_t diff =
                static_cast<std::uint8_t>(stored[b] ^ intended[b]);
            while (diff) {
                diff &= static_cast<std::uint8_t>(diff - 1);
                ++bad_bits;
            }
        }
    }
    return bad_bits;
}

unsigned
PmRank::firstSymbol(unsigned chip) const
{
    return chip == dataChips ? 0 : geom.rsCheckBytes + chip * chipBeatBytes;
}

PmRank::RsWord
PmRank::assembleRsWord(unsigned block) const
{
    RsWord word{};
    for (unsigned chip = 0; chip <= dataChips; ++chip) {
        const std::uint8_t *beat = chipBeat(chip, block);
        for (unsigned b = 0; b < chipBeatBytes; ++b)
            word[firstSymbol(chip) + b] = beat[b];
    }
    return word;
}

void
PmRank::beatFromWord(const RsWord &word, unsigned chip,
                     std::uint8_t *out8) const
{
    for (unsigned b = 0; b < chipBeatBytes; ++b)
        out8[b] = static_cast<std::uint8_t>(word[firstSymbol(chip) + b]);
}

PmRank::ChipErasures
PmRank::chipErasures(unsigned chip) const
{
    ChipErasures erasures{};
    for (unsigned b = 0; b < chipBeatBytes; ++b)
        erasures[b] = firstSymbol(chip) + b;
    return erasures;
}

void
PmRank::rsParity(const std::uint8_t *data, std::uint8_t *parity8) const
{
    RsWord word{};
    std::copy(data, data + blockBytes, word.begin() + geom.rsCheckBytes);
    rsCodec.reencode(word);
    for (unsigned b = 0; b < geom.rsCheckBytes; ++b)
        parity8[b] = static_cast<std::uint8_t>(word[b]);
}

void
PmRank::initialize(Rng &rng)
{
    // Random golden data across the data chips, then the parity chip's
    // RS check bytes; loadGolden() encodes every chip's VLEWs.
    std::uint8_t beat[chipBeatBytes];
    for (unsigned c = 0; c < dataChips; ++c) {
        for (unsigned block = 0; block < numBlocks; ++block) {
            for (auto &byte : beat)
                byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
            media.setBeat(beatOf(c, block), beat, VlewStore::Golden);
        }
    }
    std::uint8_t data[blockBytes];
    for (unsigned block = 0; block < numBlocks; ++block) {
        goldenBlock(block, data);
        rsParity(data, beat);
        media.setBeat(beatOf(dataChips, block), beat, VlewStore::Golden);
    }
    media.loadGolden();
    std::fill(disabled.begin(), disabled.end(), false);
    std::fill(poisoned.begin(), poisoned.end(), false);
}

void
PmRank::transmit(std::uint8_t *beat)
{
    if (busBer <= 0.0)
        return;
    for (;;) {
        std::uint8_t wire[chipBeatBytes];
        std::memcpy(wire, beat, chipBeatBytes);
        bool corrupted = false;
        for (unsigned b = 0; b < chipBeatBytes; ++b) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                if (busRng.chance(busBer)) {
                    wire[b] ^= static_cast<std::uint8_t>(1u << bit);
                    corrupted = true;
                }
            }
        }
        if (!corrupted)
            return;
        if (!busCrc) {
            // No Write-CRC: the corrupted sum is silently committed.
            std::memcpy(beat, wire, chipBeatBytes);
            return;
        }
        // DDR4-style Write-CRC detects the burst error; the chip
        // alerts the controller, which retransmits (footnote 4).
        const std::uint8_t sent_crc = crc8({beat, chipBeatBytes});
        if (!crc8Check({wire, chipBeatBytes}, sent_crc)) {
            ++busRetries;
            continue;
        }
        // A pattern the CRC cannot see (vanishingly rare): committed.
        std::memcpy(beat, wire, chipBeatBytes);
        return;
    }
}

void
PmRank::applyChipDelta(unsigned chip, unsigned block,
                       const std::uint8_t *wire,
                       const std::uint8_t *intended)
{
    const auto zero = [](const std::uint8_t *beat) {
        return std::all_of(beat, beat + chipBeatBytes,
                           [](std::uint8_t b) { return b == 0; });
    };
    if (zero(wire) && zero(intended))
        return;
    // The chip encodes what it actually received; the golden copy
    // tracks the intended value.
    const std::size_t beat = beatOf(chip, block);
    if (std::memcmp(wire, intended, chipBeatBytes) == 0) {
        media.applyDelta(beat, wire,
                         VlewStore::Data | VlewStore::Code |
                             VlewStore::Golden);
    } else {
        media.applyDelta(beat, wire, VlewStore::Data | VlewStore::Code);
        media.applyDelta(beat, intended, VlewStore::Golden);
    }
}

void
PmRank::chipDeltas(unsigned block, const std::uint8_t *other,
                   std::uint8_t *delta) const
{
    for (unsigned c = 0; c < dataChips; ++c) {
        const std::uint8_t *gold = goldenBeat(c, block);
        for (unsigned b = 0; b < chipBeatBytes; ++b)
            delta[c * chipBeatBytes + b] =
                gold[b] ^ other[c * chipBeatBytes + b];
    }
    rsParity(delta, &delta[dataChips * chipBeatBytes]);
}

void
PmRank::setBusFaultModel(double ber, bool crc_enabled,
                         std::uint64_t seed)
{
    NVCK_ASSERT(ber >= 0.0 && ber < 1.0, "bus BER out of range");
    busBer = ber;
    busCrc = crc_enabled;
    busRng = Rng(seed);
}

void
PmRank::writeBlock(unsigned block, const std::uint8_t *new_data)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    NVCK_ASSERT(!disabled[block], "write to disabled block");

    // Per-chip deltas (new XOR old, the OMV supplying "old"); each
    // chip receives its own across the bus.
    std::uint8_t delta[9 * chipBeatBytes];
    chipDeltas(block, new_data, delta);
    for (unsigned c = 0; c <= dataChips; ++c) {
        std::uint8_t wire[chipBeatBytes];
        std::memcpy(wire, &delta[c * chipBeatBytes], chipBeatBytes);
        transmit(wire);
        applyChipDelta(c, block, wire, &delta[c * chipBeatBytes]);
    }
    // A completed rewrite re-validates a block boot declared UE.
    poisoned[block] = false;
}

void
PmRank::applyTornWrite(unsigned block, const std::uint8_t *new_data,
                       std::uint16_t data_mask,
                       std::uint16_t code_mask)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    NVCK_ASSERT(!disabled[block], "write to disabled block");
    const unsigned total_chips = dataChips + 1;
    const std::uint16_t all =
        static_cast<std::uint16_t>((1u << total_chips) - 1);
    NVCK_ASSERT((data_mask & ~all) == 0 && (code_mask & ~all) == 0,
                "chip mask out of range");
    NVCK_ASSERT((code_mask & ~data_mask) == 0,
                "code drained on a chip that never latched data");
    NVCK_ASSERT(code_mask == 0 || data_mask == all,
                "EUR drains only after the whole burst latched");

    // Per-chip deltas exactly as writeBlock() forms them. Golden state
    // tracks the full write intent; the oracle for what the media may
    // legally resolve to is the crash campaign's own pre-crash images.
    std::uint8_t delta[9 * chipBeatBytes];
    chipDeltas(block, new_data, delta);
    for (unsigned chip = 0; chip < total_chips; ++chip) {
        unsigned landed = VlewStore::Golden;
        if (data_mask & (1u << chip))
            landed |= VlewStore::Data;
        if (code_mask & (1u << chip))
            landed |= VlewStore::Code;
        media.applyDelta(beatOf(chip, block), &delta[chip * chipBeatBytes],
                         landed);
    }
    poisoned[block] = false;
}

void
PmRank::drainCodeBits(unsigned block, const std::uint8_t *settled_data,
                      std::uint16_t chip_mask)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    NVCK_ASSERT(!disabled[block], "drain for a disabled block");
    const unsigned total_chips = dataChips + 1;
    const std::uint16_t all =
        static_cast<std::uint16_t>((1u << total_chips) - 1);
    chip_mask &= all;
    NVCK_ASSERT(chip_mask != 0, "drain with no chips");

    // The register holds the coalesced delta between the last fully
    // drained value and the current write intent (the golden data,
    // updated at every burst). Chips never see absolute values — only
    // the linear delta f(settled ^ intent) reaches the code array.
    std::uint8_t delta[9 * chipBeatBytes];
    chipDeltas(block, settled_data, delta);
    for (unsigned chip = 0; chip < total_chips; ++chip) {
        if (chip_mask & (1u << chip))
            media.applyDelta(beatOf(chip, block),
                             &delta[chip * chipBeatBytes],
                             VlewStore::Code);
    }
}

BlockReadResult
PmRank::readBlock(unsigned block, std::uint8_t *out, unsigned threshold)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    NVCK_ASSERT(!disabled[block], "read of disabled block");
    BlockReadResult result;

    // A poisoned block is a standing, *reported* UE: crash recovery
    // could not resolve it and flagged it rather than guessing.
    if (poisoned[block]) {
        result.path = ReadPath::Failed;
        result.outcome = RecoveryOutcome::DetectedUE;
        recCounters.count(result.outcome);
        return result;
    }

    auto emit = [&](const RsWord &word) {
        for (unsigned i = 0; i < rsCodec.k(); ++i)
            out[i] = static_cast<std::uint8_t>(
                word[geom.rsCheckBytes + i]);
        std::uint8_t golden[blockBytes];
        goldenBlock(block, golden);
        result.dataCorrect = std::memcmp(out, golden, blockBytes) == 0;
    };

    // RS symbol position -> owning chip (check bytes lead the word).
    auto chipOfSymbol = [&](std::uint32_t pos) {
        return pos < geom.rsCheckBytes
                   ? dataChips
                   : (pos - geom.rsCheckBytes) / chipBeatBytes;
    };

    // Step 1: opportunistic per-block RS correction (Fig 9 top).
    RsWord word = assembleRsWord(block);
    const auto rs_res = rsCodec.decode(word, {}, /*max_errors=*/-1);
    if (rs_res.status == DecodeStatus::Clean) {
        result.path = ReadPath::Clean;
        result.outcome = RecoveryOutcome::Corrected;
        emit(word);
        return result;
    }
    if (rs_res.status == DecodeStatus::Corrected &&
        rs_res.corrections <= threshold) {
        result.path = ReadPath::RsAccepted;
        result.outcome = RecoveryOutcome::Corrected;
        result.rsCorrections = rs_res.corrections;
        for (const std::uint32_t pos : rs_res.positions)
            result.chipCorrectionMask |= static_cast<std::uint16_t>(
                1u << chipOfSymbol(pos));
        recCounters.count(result.outcome);
        emit(word);
        return result;
    }
    // The RS tier proposed more corrections than the acceptance
    // threshold allows: exactly the words where accepting would risk a
    // miscorrection (the 1e-17 SDC gate). Remember the rejection for
    // the outcome taxonomy.
    const bool rs_rejected =
        rs_res.status == DecodeStatus::Corrected &&
        rs_res.corrections > threshold;

    // Step 2: rejected or uncorrectable -> fetch and correct the VLEWs
    // of every chip covering this block (Fig 9 bottom).
    const unsigned vlew = block / blocksPerVlew;
    std::vector<std::uint32_t> erasures;
    for (unsigned chip = 0; chip <= dataChips; ++chip) {
        const int corrected = scrubWord(chip, vlew).corrections;
        if (corrected < 0) {
            // Whole-chip fault: erase its beat for RS.
            result.chipErasureMask |=
                static_cast<std::uint16_t>(1u << chip);
            const auto chip_erasures = chipErasures(chip);
            erasures.insert(erasures.end(), chip_erasures.begin(),
                            chip_erasures.end());
        } else if (corrected > 0) {
            result.chipCorrectionMask |=
                static_cast<std::uint16_t>(1u << chip);
            result.vlewBitCorrections +=
                static_cast<unsigned>(corrected);
        }
    }

    // After VLEW correction any residual non-erasure errors are
    // miscorrection artifacts, so the final decode is bounded by the
    // same acceptance threshold: fail detectably instead of accepting
    // a word the SDC gate would reject.
    RsWord word2 = assembleRsWord(block);
    const auto rs2 =
        rsCodec.decode(word2, erasures, static_cast<int>(threshold));
    if (rs2.status == DecodeStatus::Uncorrectable) {
        result.path = ReadPath::Failed;
        result.outcome = RecoveryOutcome::DetectedUE;
        recCounters.count(result.outcome);
        return result;
    }
    result.path = erasures.empty() ? ReadPath::VlewFallback
                                   : ReadPath::ChipRecovered;
    result.outcome = rs_rejected ? RecoveryOutcome::MiscorrectionRisk
                                 : RecoveryOutcome::FellBackToVlew;
    recCounters.count(result.outcome);
    result.rsCorrections = rs2.corrections;
    // Residual (non-erasure) symbol fixes from the bounded decode are
    // corrections too; erasure fills are already attributed above.
    for (const std::uint32_t pos : rs2.positions) {
        const unsigned chip = chipOfSymbol(pos);
        if (!(result.chipErasureMask & (1u << chip)))
            result.chipCorrectionMask |=
                static_cast<std::uint16_t>(1u << chip);
    }
    emit(word2);
    return result;
}

ScrubReport
PmRank::bootScrub()
{
    ScrubReport report;
    std::vector<bool> chip_failed(dataChips + 1, false);

    // One batched sweep over the whole rank (scrub.hh): clean VLEWs
    // cost the streaming residue at most (nothing when their verdict
    // is memoized), dirty ones the fast corrupt-word decode. An uncorrectable VLEW marks its chip for
    // the wholesale rebuild below.
    const auto outcomes = ScrubEngine().sweep(media);
    for (unsigned chip = 0; chip <= dataChips; ++chip) {
        for (unsigned v = 0; v < numVlews; ++v) {
            ++report.vlewsScanned;
            const auto &o = outcomes[wordOf(chip, v)];
            if (o.corrections < 0) {
                chip_failed[chip] = true;
            } else if (o.corrections > 0) {
                ++report.vlewsWithErrors;
                report.bitsCorrected +=
                    static_cast<std::uint64_t>(o.corrections);
            }
        }
    }

    const unsigned failed_data = static_cast<unsigned>(
        std::count(chip_failed.begin(), chip_failed.end() - 1, true));
    const bool parity_failed = chip_failed[dataChips];

    if (failed_data > 1 || (failed_data == 1 && parity_failed)) {
        report.uncorrectable = true;
        return report;
    }
    if (failed_data == 1) {
        for (unsigned c = 0; c < dataChips; ++c) {
            if (chip_failed[c]) {
                if (rebuildDataChip(c) ==
                    RecoveryOutcome::DetectedUE)
                    report.uncorrectable = true;
                ++report.chipsRecovered;
            }
        }
    }
    if (parity_failed) {
        for (unsigned block = 0; block < numBlocks; ++block)
            recomputeParityBeat(block);
        for (unsigned v = 0; v < numVlews; ++v)
            media.reencode(wordOf(dataChips, v));
        report.parityChipRebuilt = true;
        ++report.chipsRecovered;
    }
    return report;
}

RecoveryOutcome
PmRank::rebuildDataChip(unsigned chip)
{
    const auto erasures = chipErasures(chip);
    for (unsigned block = 0; block < numBlocks; ++block) {
        RsWord word = assembleRsWord(block);
        const auto res = rsCodec.decode(word, erasures, -1);
        if (res.status == DecodeStatus::Uncorrectable) {
            recCounters.count(RecoveryOutcome::DetectedUE);
            return RecoveryOutcome::DetectedUE;
        }
        std::uint8_t beat[chipBeatBytes];
        beatFromWord(word, chip, beat);
        media.setBeat(beatOf(chip, block), beat, VlewStore::Data);
    }
    // Re-encode the rebuilt chip's VLEW code bits.
    for (unsigned v = 0; v < numVlews; ++v)
        media.reencode(wordOf(chip, v));
    recCounters.count(RecoveryOutcome::FellBackToVlew);
    return RecoveryOutcome::FellBackToVlew;
}

void
PmRank::recomputeParityBeat(unsigned block)
{
    std::uint8_t data[blockBytes];
    std::uint8_t parity[chipBeatBytes];
    for (unsigned c = 0; c < dataChips; ++c)
        std::memcpy(data + c * chipBeatBytes, chipBeat(c, block),
                    chipBeatBytes);
    rsParity(data, parity);
    media.setBeat(beatOf(dataChips, block), parity, VlewStore::Data);
}

PmRank::LaneRebuildReport
PmRank::rebuildLaneSpan(unsigned chip, unsigned vlew,
                        unsigned threshold, std::uint16_t distrust_mask)
{
    NVCK_ASSERT(chip <= dataChips, "chip out of range");
    NVCK_ASSERT(vlew < numVlews, "vlew out of range");
    LaneRebuildReport report;
    const unsigned first = vlew * blocksPerVlew;
    bool poisoned_any = false;

    // A survivor whose VLEW could not vouch for its beats makes every
    // erasure fill in the span untrustworthy (the eight erasures leave
    // no redundancy to detect the survivor's residual errors): poison
    // the whole span rather than emit a silent version mix.
    const bool distrusted =
        (distrust_mask & static_cast<std::uint16_t>(
                             ~(1u << chip))) != 0;

    const auto erasures = chipErasures(chip);
    for (unsigned i = 0; i < blocksPerVlew; ++i) {
        const unsigned block = first + i;
        if (poisoned[block])
            continue;
        if (distrusted) {
            recCounters.count(RecoveryOutcome::DetectedUE);
            poisonBlock(block);
            ++report.blocksPoisoned;
            poisoned_any = true;
            continue;
        }
        if (chip == dataChips) {
            // Parity lane: recompute the RS check bytes from the
            // (just-scrubbed) data beats.
            recomputeParityBeat(block);
            ++report.blocksFilled;
            continue;
        }
        RsWord word = assembleRsWord(block);
        const auto res =
            rsCodec.decode(word, erasures, static_cast<int>(threshold));
        if (res.status == DecodeStatus::Uncorrectable) {
            recCounters.count(RecoveryOutcome::DetectedUE);
            poisonBlock(block);
            ++report.blocksPoisoned;
            poisoned_any = true;
            continue;
        }
        std::uint8_t beat[chipBeatBytes];
        beatFromWord(word, chip, beat);
        media.setBeat(beatOf(chip, block), beat, VlewStore::Data);
        ++report.blocksFilled;
    }

    // The rebuilt lane's code bits are garbage until re-encoded from
    // the filled beats; a poisoned block additionally zeroed every
    // chip's beats (media and golden), so the whole span's code must
    // be resynchronized, exactly like crashRecovery() phase 3. The
    // zero RS parity a poison leaves is already consistent (the code
    // is linear), so only VLEW code bits need work.
    if (poisoned_any) {
        for (unsigned c = 0; c <= dataChips; ++c)
            media.reencode(wordOf(c, vlew),
                           VlewStore::Code | VlewStore::Golden);
    } else {
        media.reencode(wordOf(chip, vlew));
    }
    return report;
}

void
PmRank::clearStuckCells(unsigned chip)
{
    NVCK_ASSERT(chip <= dataChips, "chip out of range");
    media.clearStuck(wordOf(chip, 0), numVlews);
}

std::uint64_t
PmRank::injectErrors(Rng &rng, double rber)
{
    // Chip-major words: all data bits chip by chip, then all code bits.
    return media.injectErrors(rng, rber);
}

void
PmRank::failChip(unsigned chip, Rng &rng)
{
    NVCK_ASSERT(chip <= dataChips, "chip out of range");
    media.randomize(wordOf(chip, 0), numVlews, rng);
}

void
PmRank::disableBlock(unsigned block)
{
    NVCK_ASSERT(block < numBlocks, "block out of range");
    if (disabled[block])
        return;
    // Logically replace the block's bits with zeros in every chip's
    // VLEW and in the RS word (Section V-E).
    const std::uint8_t zeros[blockBytes] = {};
    writeBlock(block, zeros);
    for (unsigned chip = 0; chip <= dataChips; ++chip)
        media.setBeat(beatOf(chip, block), zeros,
                      VlewStore::Data | VlewStore::Golden);
    disabled[block] = true;
}

bool
PmRank::isDisabled(unsigned block) const
{
    return disabled.at(block);
}

void
PmRank::goldenBlock(unsigned block, std::uint8_t *out) const
{
    for (unsigned c = 0; c < dataChips; ++c)
        std::memcpy(out + c * chipBeatBytes, goldenBeat(c, block),
                    chipBeatBytes);
}

bool
PmRank::isPristine() const
{
    return media.isPristine();
}

bool
PmRank::isPoisoned(unsigned block) const
{
    return poisoned.at(block);
}

RankSnapshot
PmRank::snapshot() const
{
    return {media, disabled, poisoned};
}

void
PmRank::restore(const RankSnapshot &snap)
{
    NVCK_ASSERT(snap.media.words() == media.words() &&
                    snap.disabled.size() == disabled.size(),
                "snapshot from a different rank geometry");
    media = snap.media;
    disabled = snap.disabled;
    poisoned = snap.poisoned;
}

void
PmRank::corruptByte(unsigned chip, unsigned block, unsigned byte,
                    std::uint8_t mask)
{
    NVCK_ASSERT(chip <= dataChips, "chip out of range");
    NVCK_ASSERT(block < numBlocks, "block out of range");
    media.corruptByte(beatOf(chip, block), byte, mask);
}

void
PmRank::storeRsWord(unsigned block, const RsWord &word)
{
    // A data-only rewrite: stuck cells are re-asserted, the code bits
    // wait for crashRecovery()'s phase-3 re-encode.
    for (unsigned chip = 0; chip <= dataChips; ++chip) {
        std::uint8_t delta[chipBeatBytes];
        beatFromWord(word, chip, delta);
        const std::uint8_t *stored = chipBeat(chip, block);
        for (unsigned b = 0; b < chipBeatBytes; ++b)
            delta[b] ^= stored[b];
        media.applyDelta(beatOf(chip, block), delta, VlewStore::Data);
    }
}

void
PmRank::poisonBlock(unsigned block)
{
    // Zero the block everywhere (like disableBlock) so the media stays
    // self-consistent; golden follows because the zeros are now the
    // block's (known-lost) contents. The flag is what readers see.
    const std::uint8_t zeros[chipBeatBytes] = {};
    for (unsigned chip = 0; chip <= dataChips; ++chip)
        media.setBeat(beatOf(chip, block), zeros,
                      VlewStore::Data | VlewStore::Golden);
    poisoned[block] = true;
}

CrashRecoveryReport
PmRank::crashRecovery(unsigned threshold)
{
    CrashRecoveryReport report;
    const unsigned total_chips = dataChips + 1;

    // Phase 1: scrub every VLEW. A stale-code chip whose torn delta
    // fits in the BCH budget rolls back to the old data here; larger
    // tears stay uncorrectable and are resolved per block below.
    // Beats the rollback changed are remembered: those chips now hold
    // a *different version* than chips whose EUR drained before the
    // cut, and the erasure paths below must not mix the two.
    std::vector<std::vector<bool>> torn(
        total_chips, std::vector<bool>(numVlews, false));
    std::vector<unsigned> torn_count(total_chips, 0);
    std::vector<std::vector<bool>> rolled_back(
        total_chips, std::vector<bool>(numBlocks, false));
    const auto outcomes = ScrubEngine().sweep(media);
    for (unsigned chip = 0; chip < total_chips; ++chip) {
        for (unsigned v = 0; v < numVlews; ++v) {
            ++report.vlewsScanned;
            const auto &o = outcomes[wordOf(chip, v)];
            if (o.corrections < 0) {
                torn[chip][v] = true;
                ++torn_count[chip];
            } else if (o.corrections > 0) {
                ++report.vlewsCorrected;
                report.bitsCorrected +=
                    static_cast<std::uint64_t>(o.corrections);
                for (unsigned b = 0; b < blocksPerVlew; ++b) {
                    if (o.changedBlocks & (1ull << b))
                        rolled_back[chip][v * blocksPerVlew + b] = true;
                }
            }
        }
    }

    // A chip with *every* VLEW uncorrectable is a failed device, not a
    // torn write; its beats are erased wholesale, as in bootScrub().
    std::vector<bool> dead(total_chips, false);
    for (unsigned chip = 0; chip < total_chips; ++chip) {
        if (torn_count[chip] == numVlews) {
            dead[chip] = true;
            report.deadChips.push_back(chip);
        }
    }

    // Phase 2, span by span: verify every block's RS word and resolve
    // it to a consistent value — or poison it as a reported UE.
    std::vector<bool> span_touched(numVlews, false);
    for (unsigned v = 0; v < numVlews; ++v) {
        std::vector<unsigned> bad; //!< unreliable chips in this span
        unsigned torn_chip = total_chips;
        for (unsigned chip = 0; chip < total_chips; ++chip) {
            if (dead[chip] || torn[chip][v]) {
                bad.push_back(chip);
                span_touched[v] = true;
                if (!dead[chip])
                    torn_chip = chip;
            }
        }

        struct PendingFill
        {
            unsigned block;
            RsWord word;
        };
        std::vector<PendingFill> pending;
        std::vector<unsigned> to_poison;

        for (unsigned block = v * blocksPerVlew;
             block < (v + 1) * blocksPerVlew; ++block) {
            if (disabled[block] || poisoned[block])
                continue;
            RsWord word = assembleRsWord(block);
            const auto res = rsCodec.decode(word, {}, -1);
            if (res.status == DecodeStatus::Clean)
                continue;
            if (res.status == DecodeStatus::Corrected &&
                res.corrections <= threshold) {
                storeRsWord(block, word);
                span_touched[v] = true;
                ++report.blocksRsResolved;
                recCounters.count(RecoveryOutcome::Corrected);
                continue;
            }
            if (res.status == DecodeStatus::Corrected) {
                // A >threshold proposal is exactly where accepting
                // would risk a miscorrection: reject it.
                ++report.miscorrectionRejects;
                recCounters.count(RecoveryOutcome::MiscorrectionRisk);
            }

            // One unreliable chip: try an RS erasure rebuild of its
            // beat. With all 8 check symbols consumed by the erasure
            // the fill always "succeeds" algebraically, so it is only
            // trusted when the survivors are above suspicion (dead
            // chip: their VLEWs verified clean in phase 1) or when the
            // rebuilt beats verify against the torn chip's own stale
            // code bits (a rollback proof, checked after the loop).
            if (bad.size() == 1) {
                const auto erasures = chipErasures(bad[0]);
                RsWord word2 = assembleRsWord(block);
                const auto res2 = rsCodec.decode(
                    word2, erasures, static_cast<int>(threshold));
                if (res2.status != DecodeStatus::Uncorrectable) {
                    if (!dead[bad[0]]) {
                        pending.push_back({block, word2});
                        continue;
                    }
                    // A dead chip leaves no code bits to cross-check
                    // the fill against, so it is only trusted when no
                    // surviving beat was rolled back in phase 1: a
                    // rollback next to a drained chip leaves the
                    // survivors holding two different versions, and
                    // the fill through them is a valid-looking RS
                    // codeword that is neither the old nor the new
                    // value. Those blocks are reported, not guessed.
                    bool mixed = false;
                    for (unsigned chip = 0;
                         chip < total_chips && !mixed; ++chip)
                        mixed = chip != bad[0] &&
                                rolled_back[chip][block];
                    if (!mixed) {
                        storeRsWord(block, word2);
                        span_touched[v] = true;
                        ++report.blocksErasureResolved;
                        recCounters.count(
                            RecoveryOutcome::FellBackToVlew);
                        continue;
                    }
                }
            }
            to_poison.push_back(block);
        }

        // Cross-check deferred fills: substitute the candidate beats
        // into the torn chip's stored VLEW and decode against its
        // stale code bits. A decodable word whose corrections stay
        // outside the candidate beats proves the fill is the value
        // the chip held before the torn write (rollback to old).
        if (!pending.empty()) {
            const unsigned chip = torn_chip;
            const BchCodec &codec = media.codec();
            const unsigned r = codec.r();
            BitVec cw = media.codeword(wordOf(chip, v));
            for (const auto &p : pending) {
                std::uint8_t beat[chipBeatBytes];
                beatFromWord(p.word, chip, beat);
                cw.setBytes(r + (p.block % blocksPerVlew) *
                                    chipBeatBytes * 8,
                            beat, chipBeatBytes);
            }
            const auto bch = codec.decode(cw);
            const bool decodable =
                bch.status != DecodeStatus::Uncorrectable;
            for (const auto &p : pending) {
                bool verified = decodable;
                if (verified) {
                    std::uint8_t cand[chipBeatBytes];
                    std::uint8_t post[chipBeatBytes];
                    beatFromWord(p.word, chip, cand);
                    cw.getBytes(r + (p.block % blocksPerVlew) *
                                        chipBeatBytes * 8,
                                post, chipBeatBytes);
                    verified = std::memcmp(cand, post,
                                           chipBeatBytes) == 0;
                }
                if (verified) {
                    storeRsWord(p.block, p.word);
                    span_touched[v] = true;
                    ++report.blocksErasureResolved;
                    recCounters.count(RecoveryOutcome::FellBackToVlew);
                } else {
                    to_poison.push_back(p.block);
                }
            }
        }

        for (unsigned block : to_poison) {
            poisonBlock(block);
            span_touched[v] = true;
            report.ueBlocks.push_back(block);
            recCounters.count(RecoveryOutcome::DetectedUE);
        }
    }

    // Phase 3: the surviving data is settled; re-encode the code bits
    // of every touched span so stale/garbled BCH regions match it.
    for (unsigned v = 0; v < numVlews; ++v) {
        if (!span_touched[v])
            continue;
        for (unsigned chip = 0; chip < total_chips; ++chip)
            media.reencode(wordOf(chip, v));
    }

    // Recovery defines the new ground truth: the write intent died
    // with the machine, so whatever consistent state the pass settled
    // on *is* the memory's contents from here on.
    media.adoptMedia();
    return report;
}

double
PmRank::scrubSeconds(double capacity_bytes, double bus_bytes_per_sec)
{
    const ProposalParams p;
    return capacity_bytes * (1.0 + p.totalStorageCost()) /
           bus_bytes_per_sec;
}

} // namespace nvck
