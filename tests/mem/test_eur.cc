#include <gtest/gtest.h>

#include "mem/eur.hh"

namespace nvck {
namespace {

TEST(Eur, CoalescesWritesToSameVlew)
{
    EurModel eur(16, 4);
    eur.recordWrite(0, 2);
    eur.recordWrite(0, 2);
    eur.recordWrite(0, 2);
    EXPECT_EQ(eur.pendingRegisters(0), 1u);
    EXPECT_EQ(eur.drain(0), 1u);
    EXPECT_EQ(eur.dataWrites(), 3u);
    EXPECT_EQ(eur.codeWrites(), 1u);
    EXPECT_NEAR(eur.cFactor(), 1.0 / 3.0, 1e-12);
}

TEST(Eur, SeparateVlewsSeparateRegisters)
{
    EurModel eur(16, 4);
    eur.recordWrite(3, 0);
    eur.recordWrite(3, 1);
    eur.recordWrite(3, 3);
    EXPECT_EQ(eur.pendingRegisters(3), 3u);
    EXPECT_EQ(eur.drain(3), 3u);
    EXPECT_EQ(eur.pendingRegisters(3), 0u);
}

TEST(Eur, BanksAreIndependent)
{
    EurModel eur(4, 4);
    eur.recordWrite(0, 0);
    eur.recordWrite(1, 0);
    EXPECT_EQ(eur.drain(0), 1u);
    EXPECT_EQ(eur.pendingRegisters(1), 1u);
}

TEST(Eur, DrainOfCleanBankIsZero)
{
    EurModel eur(4, 4);
    EXPECT_EQ(eur.drain(2), 0u);
    EXPECT_EQ(eur.codeWrites(), 0u);
}

TEST(Eur, PaperRegisterBudget)
{
    // B * R / 256 registers total: R = 1KB per chip row -> 4 per bank.
    EurModel eur(16, 1024 / 256);
    EXPECT_EQ(eur.registersPerBank(), 4u);
}

TEST(Eur, WorstCaseCFactorIsOne)
{
    // Every write to a distinct VLEW (no row locality): C = 1.
    EurModel eur(1, 4);
    for (unsigned i = 0; i < 4; ++i)
        eur.recordWrite(0, i);
    eur.drain(0);
    EXPECT_DOUBLE_EQ(eur.cFactor(), 1.0);
}

TEST(Eur, DrainSlotsWithNothingPendingNeverObserves)
{
    EurModel eur(4, 4);
    unsigned observed = 0;
    EXPECT_EQ(eur.drainSlots(1, [&](unsigned) { ++observed; }), 0u);
    EXPECT_EQ(observed, 0u);
    EXPECT_EQ(eur.pendingMask(1), 0u);
    EXPECT_EQ(eur.codeWrites(), 0u);
}

TEST(Eur, PowerCutDuringFinalDrainSlot)
{
    // drainSlots() iterates a local copy of the dirty mask, so a power
    // cut fired from the last slot's observation (the crash campaign's
    // mid-drain cut) still lets the in-flight drain run to completion;
    // the registerfile just has nothing left to lose afterwards.
    EurModel eur(2, 4);
    eur.recordWrite(0, 0);
    eur.recordWrite(0, 2);
    eur.recordWrite(0, 3);
    std::vector<unsigned> observed;
    const unsigned drained = eur.drainSlots(0, [&](unsigned slot) {
        observed.push_back(slot);
        if (observed.size() == 3) {
            EXPECT_EQ(eur.powerCut(), 1u); // only this slot still dirty
        }
    });
    EXPECT_EQ(drained, 3u);
    EXPECT_EQ(observed, (std::vector<unsigned>{0, 2, 3}));
    EXPECT_EQ(eur.pendingMask(0), 0u);
    EXPECT_EQ(eur.pendingRegisters(0), 0u);
}

TEST(Eur, ObservationSeesSlotStillDirty)
{
    // on_slot fires before the register clears: a cut landing inside
    // the observation must still count the retiring slot as pending.
    EurModel eur(1, 4);
    eur.recordWrite(0, 1);
    eur.drainSlots(0, [&](unsigned slot) {
        EXPECT_EQ(slot, 1u);
        EXPECT_EQ(eur.pendingMask(0), 1ull << 1);
    });
    EXPECT_EQ(eur.pendingMask(0), 0u);
}

TEST(Eur, DoublePowerCutIsIdempotent)
{
    EurModel eur(2, 4);
    eur.recordWrite(0, 0);
    eur.recordWrite(1, 3);
    EXPECT_EQ(eur.powerCut(), 2u);
    EXPECT_EQ(eur.powerCut(), 0u);
    EXPECT_EQ(eur.pendingMask(0), 0u);
    EXPECT_EQ(eur.pendingMask(1), 0u);
    // Stats survive the cut (they describe history, not state).
    EXPECT_EQ(eur.dataWrites(), 2u);
}

TEST(Eur, ResetStats)
{
    EurModel eur(1, 4);
    eur.recordWrite(0, 0);
    eur.drain(0);
    eur.resetStats();
    EXPECT_EQ(eur.codeWrites(), 0u);
    EXPECT_EQ(eur.dataWrites(), 0u);
}

} // namespace
} // namespace nvck
