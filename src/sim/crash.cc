#include "crash.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/log.hh"

namespace nvck {

std::span<const TallyField<CrashTally>>
CrashTally::fields()
{
    using T = CrashTally;
    static constexpr TallyField<T> table[] = {
        {"trials", "trials", &T::trials, TallyRule::Sum},
        {"torn_old", "-> old", &T::tornOld, TallyRule::Sum},
        {"torn_new", "-> new", &T::tornNew, TallyRule::Sum},
        {"torn_ue", "-> reported UE", &T::tornUe, TallyRule::Sum},
        {"chip_kills", "chip kills", &T::chipKills, TallyRule::Sum},
        {"collateral_ue", "collateral UE", &T::collateralUe,
         TallyRule::Sum},
        {"block_violations", "violations", &T::violations,
         TallyRule::Violation},
    };
    return table;
}

std::uint16_t
randomChipMask(Rng &rng, unsigned chips, bool forbid_empty,
               bool forbid_full)
{
    const std::uint16_t full =
        static_cast<std::uint16_t>((1u << chips) - 1);
    std::uint16_t mask = 0;
    for (unsigned c = 0; c < chips; ++c) {
        if (rng.chance(0.5))
            mask |= static_cast<std::uint16_t>(1u << c);
    }
    if (forbid_empty && mask == 0)
        mask = static_cast<std::uint16_t>(1u << rng.below(chips));
    if (forbid_full && mask == full)
        mask &= static_cast<std::uint16_t>(~(1u << rng.below(chips)));
    return mask;
}

void
makePayload(Rng &rng, const std::uint8_t *old_data, std::uint8_t *out)
{
    if (rng.chance(0.5)) {
        for (unsigned i = 0; i < blockBytes; i += 8) {
            const std::uint64_t word = rng.next();
            std::memcpy(out + i, &word, 8);
        }
    } else {
        std::memcpy(out, old_data, blockBytes);
        const unsigned flips = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned f = 0; f < flips; ++f) {
            const unsigned byte =
                static_cast<unsigned>(rng.below(blockBytes));
            out[byte] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        }
    }
    if (std::memcmp(out, old_data, blockBytes) == 0)
        out[0] ^= 1u; // flips cancelled (or the RNG matched old)
}

namespace {

/** What the oracle expects of one written block. */
struct WrittenBlock
{
    unsigned block = 0;
    std::array<std::uint8_t, blockBytes> oldData;
    std::array<std::uint8_t, blockBytes> newData;
    /** Completed before the cut (ADR-durable): must never roll back. */
    bool durable = false;
};

/**
 * Ground-truth oracle over a recovered rank of @p pristine.size()
 * blocks. @p read(b, out) reads block b back and returns true for a
 * reported UE. Untouched blocks must hold their pristine value, a
 * durable write its new value, the torn write its old or new value;
 * a reported UE is legal everywhere.
 */
template <typename Read>
void
checkRecovered(
    const std::vector<std::array<std::uint8_t, blockBytes>> &pristine,
    std::span<const WrittenBlock> written, Read read, CrashTally &tally)
{
    std::uint8_t out[blockBytes];
    for (unsigned b = 0; b < pristine.size(); ++b) {
        const auto it =
            std::find_if(written.begin(), written.end(),
                         [b](const WrittenBlock &w) { return w.block == b; });
        const WrittenBlock *w = it == written.end() ? nullptr : &*it;
        if (read(b, out)) {
            // Explicitly reported loss — legal everywhere, tallied
            // against the torn block or as collateral damage.
            if (w && !w->durable)
                ++tally.tornUe;
            else
                ++tally.collateralUe;
            continue;
        }
        if (!w) {
            if (std::memcmp(out, pristine[b].data(), blockBytes))
                ++tally.violations;
        } else if (w->durable) {
            // An accepted PM write is inside the ADR domain: anything
            // but the new value (or a reported UE) breaks persistence.
            if (std::memcmp(out, w->newData.data(), blockBytes))
                ++tally.violations;
        } else if (std::memcmp(out, w->newData.data(), blockBytes) == 0) {
            ++tally.tornNew;
        } else if (std::memcmp(out, w->oldData.data(), blockBytes) == 0) {
            ++tally.tornOld;
        } else {
            ++tally.violations;
        }
    }
}

} // namespace

CrashInjector::CrashInjector(PmRank &r) : rank(r), pristine(r.snapshot())
{
    pristineBlocks.resize(rank.blocks());
    for (unsigned b = 0; b < rank.blocks(); ++b)
        rank.goldenBlock(b, pristineBlocks[b].data());
}

CrashTally
CrashInjector::runTrial(CrashPoint point, Rng &rng,
                        const CrashTrialOptions &opts)
{
    rank.restore(pristine);
    const unsigned chips = rank.chips();
    const std::uint16_t full_mask =
        static_cast<std::uint16_t>((1u << chips) - 1);

    // Pick the written blocks: one torn block, preceded by durable
    // writes when the cut lands between blocks of a larger persist.
    unsigned count = 1;
    CrashPoint torn_point = point;
    if (point == CrashPoint::MidMultiBlockPersist) {
        NVCK_ASSERT(opts.maxBlocks >= 2, "multi-block needs >= 2");
        count = 2 + static_cast<unsigned>(rng.below(opts.maxBlocks - 1));
        torn_point = static_cast<CrashPoint>(rng.below(3));
    }
    std::vector<WrittenBlock> written;
    while (written.size() < count) {
        const unsigned b = static_cast<unsigned>(rng.below(rank.blocks()));
        if (std::any_of(written.begin(), written.end(),
                        [b](const WrittenBlock &w) { return w.block == b; }))
            continue;
        WrittenBlock w;
        w.block = b;
        w.oldData = pristineBlocks[b];
        makePayload(rng, w.oldData.data(), w.newData.data());
        w.durable = written.size() + 1 < count;
        written.push_back(w);
    }

    for (const auto &w : written) {
        if (w.durable) {
            rank.writeBlock(w.block, w.newData.data());
            continue;
        }
        std::uint16_t data_mask = full_mask;
        std::uint16_t code_mask = 0;
        switch (torn_point) {
          case CrashPoint::MidXorWrite:
            data_mask = randomChipMask(rng, chips, true, true);
            break;
          case CrashPoint::MidEurCoalesce:
            break; // full data, nothing drained
          case CrashPoint::MidRowCloseDrain:
            code_mask = randomChipMask(rng, chips, true, true);
            break;
          case CrashPoint::MidMultiBlockPersist:
            NVCK_PANIC("torn sub-point cannot recurse");
        }
        rank.applyTornWrite(w.block, w.newData.data(), data_mask,
                            code_mask);
    }

    CrashTally tally;
    tally.trials = 1;
    if (rng.chance(opts.chipKillFraction)) {
        rank.failChip(static_cast<unsigned>(rng.below(chips)), rng);
        tally.chipKills = 1;
    }

    rank.crashRecovery(opts.threshold);

    checkRecovered(
        pristineBlocks, written,
        [this, &opts](unsigned b, std::uint8_t *out) {
            return rank.readBlock(b, out, opts.threshold).path ==
                   ReadPath::Failed;
        },
        tally);
    return tally;
}

DegradedCrashInjector::DegradedCrashInjector(DegradedRank &r)
    : rank(r), pristine(r.snapshot())
{
    pristineBlocks.resize(rank.blocks());
    for (unsigned b = 0; b < rank.blocks(); ++b)
        rank.goldenBlock(b, pristineBlocks[b].data());
}

CrashTally
DegradedCrashInjector::runTrial(Rng &rng)
{
    rank.restore(pristine);
    WrittenBlock w;
    w.block = static_cast<unsigned>(rng.below(rank.blocks()));
    w.oldData = pristineBlocks[w.block];
    makePayload(rng, w.oldData.data(), w.newData.data());

    // Degraded mode has no RS tier: the only torn shape left is the
    // EUR window (data durable, striped-VLEW code delta lost).
    rank.applyTornWrite(w.block, w.newData.data(), false);
    rank.scrub();

    CrashTally tally;
    tally.trials = 1;
    checkRecovered(
        pristineBlocks, {&w, 1},
        [this](unsigned b, std::uint8_t *out) {
            return rank.readBlock(b, out).failed;
        },
        tally);
    return tally;
}

CrashCampaignTotals
crashCampaign(std::ostream &os, const SweepOptions &opts,
              const CrashCampaignConfig &cfg)
{
    std::vector<CampaignRow> rows;
    for (unsigned p = 0; p < numCrashPoints; ++p)
        rows.push_back({crashPointName(static_cast<CrashPoint>(p)),
                        evenShare(cfg.trials, numCrashPoints, p)});
    rows.push_back({"degraded-eur-window", cfg.degradedTrials});

    // The verdict block is the caller's: the oracle-checked benches
    // share it (with its replay hint) through bench_common.hh.
    return runCampaign<CrashTally>(
        os, opts, cfg.seed, cfg.chunkTrials, rows, {"crash point", {}},
        [&cfg](std::size_t row, std::uint64_t batch, Rng &rng) {
            CrashTally tally;
            if (row == numCrashPoints) {
                DegradedRank rank(cfg.rankBlocks);
                rank.initialize(rng);
                DegradedCrashInjector injector(rank);
                for (std::uint64_t t = 0; t < batch; ++t)
                    tally += injector.runTrial(rng);
                return tally;
            }
            PmRank rank(cfg.rankBlocks);
            rank.initialize(rng);
            CrashInjector injector(rank);
            for (std::uint64_t t = 0; t < batch; ++t)
                tally += injector.runTrial(static_cast<CrashPoint>(row),
                                           rng, cfg.trial);
            return tally;
        });
}

} // namespace nvck
