/**
 * @file
 * Properties of the persist-order oracle behind every crash and RAS
 * campaign, plus the stale-persist-ack ledger it leans on: an acked
 * (settled) persist must read back NEW-only, an unsettled write may
 * resolve to any acked value in its burst chain but never to garbage,
 * and the System's orphaned-ack accounting absorbs exactly the acks a
 * power cut stranded — one short of that aborts (death test).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "chipkill/schemes.hh"
#include "sim/configs.hh"
#include "sim/crash.hh"
#include "sim/system.hh"

namespace nvck {

/** Test seam: drives the private persist bookkeeping directly. */
class SystemTestPeer
{
  public:
    static void
    issued(System &sys, unsigned core)
    {
        sys.persistIssued(core);
    }
    static void
    done(System &sys, unsigned core, Tick when)
    {
        sys.persistDone(core, when);
    }
};

namespace {

using Verdict = PersistOracle::Verdict;

std::array<std::uint8_t, blockBytes>
patterned(std::uint8_t fill)
{
    std::array<std::uint8_t, blockBytes> v;
    for (unsigned i = 0; i < blockBytes; ++i)
        v[i] = static_cast<std::uint8_t>(fill ^ i);
    return v;
}

TEST(PersistOracle, SettledBlockMustReadBackExactly)
{
    PersistOracle oracle(4);
    const auto v0 = patterned(0x11);
    oracle.setBaseline(1, v0.data());

    EXPECT_EQ(oracle.classify(1, v0.data(), false), Verdict::SettledOk);
    auto garbled = v0;
    garbled[7] ^= 0x20;
    EXPECT_EQ(oracle.classify(1, garbled.data(), false),
              Verdict::Violation);
    // A reported UE is legal even on an untouched block (collateral).
    EXPECT_EQ(oracle.classify(1, v0.data(), true), Verdict::ReportedUe);
}

TEST(PersistOracle, AckedPersistIsNewOnly)
{
    PersistOracle oracle(2);
    const auto v0 = patterned(0x00);
    const auto v1 = patterned(0xa5);
    oracle.setBaseline(0, v0.data());
    oracle.recordBurst(0, v1.data());
    oracle.recordDrain(0);

    // The drain settled v1: the pre-write value is now a rollback of a
    // durable write — the exact failure chipkill recovery must never
    // produce.
    EXPECT_FALSE(oracle.pending(0));
    EXPECT_EQ(oracle.classify(0, v1.data(), false), Verdict::SettledOk);
    EXPECT_EQ(oracle.classify(0, v0.data(), false),
              Verdict::Violation);
}

TEST(PersistOracle, PendingWriteResolvesOldNewOrUeNeverGarbage)
{
    PersistOracle oracle(2);
    const auto v0 = patterned(0x0f);
    const auto v1 = patterned(0xf0);
    oracle.setBaseline(0, v0.data());
    oracle.recordBurst(0, v1.data());

    EXPECT_TRUE(oracle.pending(0));
    EXPECT_EQ(oracle.pendingCount(), 1u);
    EXPECT_EQ(oracle.classify(0, v1.data(), false), Verdict::TornNew);
    EXPECT_EQ(oracle.classify(0, v0.data(), false), Verdict::TornOld);
    EXPECT_EQ(oracle.classify(0, v0.data(), true),
              Verdict::ReportedUe);
    auto mixed = v0;
    std::memcpy(mixed.data(), v1.data(), blockBytes / 2);
    ASSERT_NE(0, std::memcmp(mixed.data(), v0.data(), blockBytes));
    ASSERT_NE(0, std::memcmp(mixed.data(), v1.data(), blockBytes));
    EXPECT_EQ(oracle.classify(0, mixed.data(), false),
              Verdict::Violation);
}

TEST(PersistOracle, CoalescedChainAdmitsEveryAckedValue)
{
    // Three bursts coalesce in one EUR register: the cut may strand
    // the block at the settled value, at the latest intent, or — via
    // RS/VLEW resolution — at an earlier acked burst. All are acked
    // values the program wrote; only off-chain bytes are garbage.
    PersistOracle oracle(1);
    const auto v0 = patterned(0x01);
    const auto v1 = patterned(0x22);
    const auto v2 = patterned(0x44);
    const auto v3 = patterned(0x88);
    oracle.setBaseline(0, v0.data());
    oracle.recordBurst(0, v1.data());
    oracle.recordBurst(0, v2.data());
    oracle.recordBurst(0, v3.data());

    EXPECT_EQ(oracle.classify(0, v0.data(), false), Verdict::TornOld);
    EXPECT_EQ(oracle.classify(0, v1.data(), false),
              Verdict::TornIntermediate);
    EXPECT_EQ(oracle.classify(0, v2.data(), false),
              Verdict::TornIntermediate);
    EXPECT_EQ(oracle.classify(0, v3.data(), false), Verdict::TornNew);
    EXPECT_EQ(0, std::memcmp(oracle.latest(0).data(), v3.data(),
                             blockBytes));

    // Settling collapses the chain onto the last acked value.
    oracle.recordDrain(0);
    EXPECT_FALSE(oracle.pending(0));
    EXPECT_EQ(oracle.classify(0, v3.data(), false), Verdict::SettledOk);
    EXPECT_EQ(oracle.classify(0, v1.data(), false),
              Verdict::Violation);
}

TEST(PersistOracle, RandomizedChainsNeverMisclassify)
{
    Rng rng(321);
    PersistOracle oracle(8);
    std::array<std::array<std::uint8_t, blockBytes>, 8> settled;
    for (unsigned b = 0; b < 8; ++b) {
        for (auto &byte : settled[b])
            byte = static_cast<std::uint8_t>(rng.next());
        oracle.setBaseline(b, settled[b].data());
    }
    std::array<std::vector<std::array<std::uint8_t, blockBytes>>, 8>
        chains;
    for (unsigned step = 0; step < 2000; ++step) {
        const unsigned b = static_cast<unsigned>(rng.below(8));
        if (!chains[b].empty() && rng.chance(0.3)) {
            oracle.recordDrain(b);
            settled[b] = chains[b].back();
            chains[b].clear();
        } else {
            std::array<std::uint8_t, blockBytes> v;
            for (auto &byte : v)
                byte = static_cast<std::uint8_t>(rng.next());
            oracle.recordBurst(b, v.data());
            chains[b].push_back(v);
        }

        // Invariants after every step, on a random block.
        const unsigned q = static_cast<unsigned>(rng.below(8));
        EXPECT_EQ(oracle.pending(q), !chains[q].empty());
        const auto settled_verdict =
            oracle.classify(q, settled[q].data(), false);
        EXPECT_EQ(settled_verdict, chains[q].empty()
                                       ? Verdict::SettledOk
                                       : Verdict::TornOld);
        if (!chains[q].empty()) {
            EXPECT_EQ(oracle.classify(q, chains[q].back().data(),
                                      false),
                      Verdict::TornNew);
        }
        auto garbage = settled[q];
        garbage[step % blockBytes] ^= 0xff;
        const auto garbage_verdict =
            oracle.classify(q, garbage.data(), false);
        EXPECT_TRUE(garbage_verdict == Verdict::Violation ||
                    garbage_verdict == Verdict::TornNew ||
                    garbage_verdict == Verdict::TornIntermediate);
        EXPECT_EQ(oracle.classify(q, garbage.data(), true),
                  Verdict::ReportedUe);
    }
}

TEST(PersistOracle, AuditMatchesClassify)
{
    // audit() must count exactly what a per-block classify() loop
    // counts, with a reported UE split on whether its block is
    // pending — over randomized chains and every kind of readback.
    Rng rng(2024);
    constexpr unsigned blocks = 32;
    for (unsigned round = 0; round < 50; ++round) {
        PersistOracle oracle(blocks);
        std::array<PersistOracle::Value, blocks> readback;
        std::array<bool, blocks> ue{};
        for (unsigned b = 0; b < blocks; ++b) {
            PersistOracle::Value v;
            for (auto &byte : v)
                byte = static_cast<std::uint8_t>(rng.next());
            oracle.setBaseline(b, v.data());
            std::vector<PersistOracle::Value> chain;
            const unsigned bursts = static_cast<unsigned>(rng.below(4));
            for (unsigned i = 0; i < bursts; ++i) {
                for (auto &byte : v)
                    byte = static_cast<std::uint8_t>(rng.next());
                oracle.recordBurst(b, v.data());
                chain.push_back(v);
            }
            if (!chain.empty() && rng.chance(0.3)) {
                oracle.recordDrain(b);
                chain.clear();
            }
            // Settled, latest, an earlier chain value, garbage, or UE.
            switch (rng.below(5)) {
              case 0:
                readback[b] = oracle.settled(b);
                break;
              case 1:
                readback[b] = oracle.latest(b);
                break;
              case 2:
                readback[b] = chain.empty()
                                  ? oracle.settled(b)
                                  : chain[rng.below(chain.size())];
                break;
              case 3:
                readback[b] = oracle.latest(b);
                readback[b][rng.below(blockBytes)] ^= 0x10;
                break;
              default:
                ue[b] = true;
                break;
            }
        }

        PersistOracle::Audit want;
        for (unsigned b = 0; b < blocks; ++b) {
            switch (oracle.classify(b, readback[b].data(), ue[b])) {
              case Verdict::SettledOk:
                break;
              case Verdict::TornOld:
                ++want.tornOld;
                break;
              case Verdict::TornNew:
                ++want.tornNew;
                break;
              case Verdict::TornIntermediate:
                ++want.tornIntermediate;
                break;
              case Verdict::ReportedUe:
                ++(oracle.pending(b) ? want.tornUe : want.collateralUe);
                break;
              case Verdict::Violation:
                ++want.violations;
                break;
            }
        }
        const PersistOracle::Audit got =
            oracle.audit([&](unsigned b, std::uint8_t *out) {
                std::memcpy(out, readback[b].data(), blockBytes);
                return ue[b];
            });
        EXPECT_EQ(got.tornOld, want.tornOld);
        EXPECT_EQ(got.tornNew, want.tornNew);
        EXPECT_EQ(got.tornIntermediate, want.tornIntermediate);
        EXPECT_EQ(got.tornUe, want.tornUe);
        EXPECT_EQ(got.collateralUe, want.collateralUe);
        EXPECT_EQ(got.violations, want.violations);
        EXPECT_EQ(got.tornUe + got.collateralUe,
                  static_cast<std::uint64_t>(
                      std::count(ue.begin(), ue.end(), true)));
    }
}

SystemConfig
tinyConfig()
{
    SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, proposalScheme(runtimeRberFor(PmTech::Reram)),
        "echo", 7);
    cfg.cores = 2;
    cfg.cache.cores = 2;
    return cfg;
}

TEST(StalePersistAcks, PowerFailStrandsExactlyTheInFlightAcks)
{
    System sys(tinyConfig());
    SystemTestPeer::issued(sys, 0);
    SystemTestPeer::issued(sys, 0);
    SystemTestPeer::issued(sys, 1);
    EXPECT_EQ(sys.pendingStaleAcks(), 0u);

    const PowerFailReport report = sys.powerFail();
    EXPECT_EQ(report.persistsInFlight, 3u);
    EXPECT_EQ(sys.pendingStaleAcks(), 3u);

    // Stranded completion chains resolve against the rebooted machine
    // and are absorbed by the ledger, regardless of core.
    SystemTestPeer::done(sys, 0, 10);
    SystemTestPeer::done(sys, 1, 20);
    SystemTestPeer::done(sys, 1, 30);
    EXPECT_EQ(sys.pendingStaleAcks(), 0u);
}

TEST(StalePersistAcksDeathTest, UnderflowAborts)
{
    // One more completion than the cut stranded is a bookkeeping bug:
    // the guard at persistDone() must abort, not wrap.
    System sys(tinyConfig());
    SystemTestPeer::issued(sys, 0);
    sys.powerFail();
    SystemTestPeer::done(sys, 0, 10);
    EXPECT_EQ(sys.pendingStaleAcks(), 0u);
    EXPECT_DEATH(SystemTestPeer::done(sys, 0, 20),
                 "persist underflow");
}

} // namespace
} // namespace nvck
