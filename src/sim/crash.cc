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

PersistOracle::PersistOracle(unsigned blocks)
    : settledVal(blocks), chains(blocks)
{
}

void
PersistOracle::setBaseline(unsigned block, const std::uint8_t *value)
{
    std::memcpy(settledVal[block].data(), value, blockBytes);
    chains[block].clear();
}

void
PersistOracle::recordBurst(unsigned block, const std::uint8_t *value)
{
    Value v;
    std::memcpy(v.data(), value, blockBytes);
    chains[block].push_back(v);
}

void
PersistOracle::recordDrain(unsigned block)
{
    NVCK_ASSERT(!chains[block].empty(), "drain with no pending burst");
    settledVal[block] = chains[block].back();
    chains[block].clear();
}

unsigned
PersistOracle::pendingCount() const
{
    unsigned n = 0;
    for (const auto &c : chains)
        n += !c.empty();
    return n;
}

PersistOracle::Verdict
PersistOracle::classify(unsigned block, const std::uint8_t *readback,
                        bool reported_ue) const
{
    if (reported_ue)
        return Verdict::ReportedUe;
    const auto &chain = chains[block];
    if (chain.empty()) {
        // Settled block: an accepted-and-drained write is inside the
        // persistence domain; anything but its exact value is a loss.
        return std::memcmp(readback, settledVal[block].data(),
                           blockBytes) == 0
                   ? Verdict::SettledOk
                   : Verdict::Violation;
    }
    if (std::memcmp(readback, chain.back().data(), blockBytes) == 0)
        return Verdict::TornNew;
    if (std::memcmp(readback, settledVal[block].data(), blockBytes) == 0)
        return Verdict::TornOld;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (std::memcmp(readback, chain[i].data(), blockBytes) == 0)
            return Verdict::TornIntermediate;
    }
    return Verdict::Violation;
}

namespace {

/** A trial's tally from its audit. With one burst per block no
 *  intermediate value exists, so TornIntermediate is a violation. */
CrashTally
trialTally(const PersistOracle::Audit &a)
{
    CrashTally tally;
    tally.trials = 1;
    tally.tornOld = a.tornOld;
    tally.tornNew = a.tornNew;
    tally.tornUe = a.tornUe;
    tally.collateralUe = a.collateralUe;
    tally.violations = a.violations + a.tornIntermediate;
    return tally;
}

} // namespace

CrashInjector::CrashInjector(PmRank &r)
    : rank(r), pristine(r.snapshot()), oracle(r.blocks())
{
    for (unsigned b = 0; b < rank.blocks(); ++b)
        oracle.rebase(rank, b);
}

CrashTally
CrashInjector::runTrial(CrashPoint point, Rng &rng,
                        const CrashTrialOptions &opts)
{
    rank.restore(pristine);
    for (const unsigned b : written)
        oracle.rebase(rank, b);
    written.clear();
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
    while (written.size() < count) {
        const unsigned b = static_cast<unsigned>(rng.below(rank.blocks()));
        if (std::find(written.begin(), written.end(), b) != written.end())
            continue;
        written.push_back(b);
        std::uint8_t value[blockBytes];
        makePayload(rng, oracle.settled(b).data(), value);
        oracle.recordBurst(b, value);
        if (written.size() < count) {
            // Completed before the cut: ADR-durable.
            rank.writeBlock(b, value);
            oracle.recordDrain(b);
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
        rank.applyTornWrite(b, value, data_mask, code_mask);
    }

    const bool chip_kill = rng.chance(opts.chipKillFraction);
    if (chip_kill)
        rank.failChip(static_cast<unsigned>(rng.below(chips)), rng);

    rank.crashRecovery(opts.threshold);

    CrashTally tally = trialTally(
        oracle.audit([this, &opts](unsigned b, std::uint8_t *out) {
            return rank.readBlock(b, out, opts.threshold).path ==
                   ReadPath::Failed;
        }));
    tally.chipKills = chip_kill;
    return tally;
}

DegradedCrashInjector::DegradedCrashInjector(DegradedRank &r)
    : rank(r), pristine(r.snapshot()), oracle(r.blocks())
{
    for (unsigned b = 0; b < rank.blocks(); ++b)
        oracle.rebase(rank, b);
}

CrashTally
DegradedCrashInjector::runTrial(Rng &rng)
{
    rank.restore(pristine);
    for (const unsigned b : written)
        oracle.rebase(rank, b);
    const unsigned b = static_cast<unsigned>(rng.below(rank.blocks()));
    written.assign(1, b);
    std::uint8_t value[blockBytes];
    makePayload(rng, oracle.settled(b).data(), value);

    // Degraded mode has no RS tier: the only torn shape left is the
    // EUR window (data durable, striped-VLEW code delta lost).
    rank.applyTornWrite(b, value, false);
    oracle.recordBurst(b, value);
    rank.scrub();

    return trialTally(oracle.audit([this](unsigned blk, std::uint8_t *out) {
        return rank.readBlock(blk, out).failed;
    }));
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
