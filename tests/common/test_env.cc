/**
 * @file
 * Strict environment-knob parsing (common/env.hh): the pure parsers
 * cover every malformed shape, and death tests pin the exit(2) policy
 * for garbage integer and choice knob values. The death tests
 * deliberately avoid the Crash and parallel-engine suite names so they
 * stay out of the TSan CI regex (fork-based death tests are unreliable
 * under TSan).
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "sim/ras.hh"

using namespace nvck;

TEST(EnvParse, AcceptsPlainPositiveIntegers)
{
    EXPECT_EQ(parsePositive("1"), 1u);
    EXPECT_EQ(parsePositive("8"), 8u);
    EXPECT_EQ(parsePositive("4096"), 4096u);
    EXPECT_EQ(parsePositive("18446744073709551615"),
              UINT64_MAX);
}

TEST(EnvParse, RejectsMalformedIntegers)
{
    EXPECT_FALSE(parsePositive(nullptr));
    EXPECT_FALSE(parsePositive(""));
    EXPECT_FALSE(parsePositive("0"));
    EXPECT_FALSE(parsePositive("-4"));
    EXPECT_FALSE(parsePositive("+4"));
    EXPECT_FALSE(parsePositive(" 4"));
    EXPECT_FALSE(parsePositive("4 "));
    EXPECT_FALSE(parsePositive("4x"));
    EXPECT_FALSE(parsePositive("x4"));
    EXPECT_FALSE(parsePositive("4.5"));
    EXPECT_FALSE(parsePositive("0x10"));
    // One past UINT64_MAX: overflow must not wrap.
    EXPECT_FALSE(parsePositive("18446744073709551616"));
}

TEST(EnvParse, EnforcesUpperBound)
{
    EXPECT_EQ(parsePositive("1024", 1024), 1024u);
    EXPECT_FALSE(parsePositive("1025", 1024));
}

TEST(EnvParse, MatchesChoicesExactly)
{
    const auto choices = {"scalar", "sliced"};
    EXPECT_EQ(parseChoice("scalar", choices), 0u);
    EXPECT_EQ(parseChoice("sliced", choices), 1u);
    EXPECT_FALSE(parseChoice("Sliced", choices));
    EXPECT_FALSE(parseChoice("scalar ", choices));
    EXPECT_FALSE(parseChoice("", choices));
    EXPECT_FALSE(parseChoice(nullptr, choices));
}

TEST(EnvParse, UnsetKnobIsAbsent)
{
    ::unsetenv("NVCK_TEST_KNOB");
    EXPECT_FALSE(envPositive("NVCK_TEST_KNOB"));
    EXPECT_FALSE(envChoice("NVCK_TEST_KNOB", {"a", "b"}));
}

TEST(EnvParse, WellFormedKnobReadsBack)
{
    ::setenv("NVCK_TEST_KNOB", "12", 1);
    EXPECT_EQ(envPositive("NVCK_TEST_KNOB"), 12u);
    ::setenv("NVCK_TEST_KNOB", "b", 1);
    EXPECT_EQ(envChoice("NVCK_TEST_KNOB", {"a", "b"}), 1u);
    ::unsetenv("NVCK_TEST_KNOB");
}

using EnvParseDeathTest = ::testing::Test;

TEST(EnvParseDeathTest, GarbageIntegerKnobExitsWithError)
{
    ::setenv("NVCK_TEST_KNOB", "fast", 1);
    EXPECT_EXIT(envPositive("NVCK_TEST_KNOB"),
                ::testing::ExitedWithCode(2), "NVCK_TEST_KNOB.*'fast'");
    ::unsetenv("NVCK_TEST_KNOB");
}

TEST(EnvParseDeathTest, GarbageChoiceKnobExitsWithError)
{
    ::setenv("NVCK_TEST_KNOB", "vectorized", 1);
    EXPECT_EXIT(envChoice("NVCK_TEST_KNOB", {"scalar", "sliced"}),
                ::testing::ExitedWithCode(2),
                "NVCK_TEST_KNOB.*scalar, sliced.*'vectorized'");
    ::unsetenv("NVCK_TEST_KNOB");
}

// The hot-sparing knobs ride the same strict parser end to end
// through RasConfig::fromEnv(). (Test names deliberately avoid the
// TSan CI regex tokens; see the file comment.)

TEST(EnvParseDeathTest, GarbageRebuildBlocksKnobExitsWithError)
{
    ::setenv("NVCK_SPARE_REBUILD_BLOCKS", "-32", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_SPARE_REBUILD_BLOCKS.*'-32'");
    ::unsetenv("NVCK_SPARE_REBUILD_BLOCKS");
}

TEST(EnvParseDeathTest, GarbageRebuildIntervalKnobExitsWithError)
{
    ::setenv("NVCK_SPARE_REBUILD_INTERVAL", "60ns", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_SPARE_REBUILD_INTERVAL.*'60ns'");
    ::unsetenv("NVCK_SPARE_REBUILD_INTERVAL");
}

TEST(EnvParseDeathTest, GarbagePatrolOrderKnobExitsWithError)
{
    ::setenv("NVCK_RAS_PATROL_ORDER", "hottest", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_RAS_PATROL_ORDER.*wear, addr.*'hottest'");
    ::unsetenv("NVCK_RAS_PATROL_ORDER");
}

// Values that parse but overflow their field after conversion (ns to
// ticks, or a 32-bit block count) are rejected, not wrapped.

TEST(EnvParseDeathTest, PatrolKnobOverflowingTicksExitsWithError)
{
    ::setenv("NVCK_RAS_PATROL", "18446744073709551615", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_RAS_PATROL.*'18446744073709551615'");
    ::unsetenv("NVCK_RAS_PATROL");
}

TEST(EnvParseDeathTest, DecayKnobOverflowingTicksExitsWithError)
{
    ::setenv("NVCK_RAS_DECAY", "99999999999999999", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_RAS_DECAY.*'99999999999999999'");
    ::unsetenv("NVCK_RAS_DECAY");
}

TEST(EnvParseDeathTest, RebuildIntervalKnobOverflowingTicksExitsWithError)
{
    ::setenv("NVCK_SPARE_REBUILD_INTERVAL", "18446744073709552", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_SPARE_REBUILD_INTERVAL.*'18446744073709552'");
    ::unsetenv("NVCK_SPARE_REBUILD_INTERVAL");
}

TEST(EnvParseDeathTest, RebuildBlocksKnobOverflowingUnsignedExitsWithError)
{
    ::setenv("NVCK_SPARE_REBUILD_BLOCKS", "4294967296", 1);
    EXPECT_EXIT(RasConfig::fromEnv(), ::testing::ExitedWithCode(2),
                "NVCK_SPARE_REBUILD_BLOCKS.*'4294967296'");
    ::unsetenv("NVCK_SPARE_REBUILD_BLOCKS");
}

TEST(EnvParse, RasTickKnobsAcceptTheLargestConvertibleValue)
{
    // UINT64_MAX / ticksPerNs is the largest ns count that still fits
    // a Tick; it converts exactly.
    ::setenv("NVCK_RAS_DECAY", "18446744073709551", 1);
    ::setenv("NVCK_SPARE_REBUILD_BLOCKS", "4294967295", 1);
    const RasConfig cfg = RasConfig::fromEnv();
    EXPECT_EQ(cfg.decayInterval, 18446744073709551ull * ticksPerNs);
    EXPECT_EQ(cfg.rebuildBlocksPerStep, 4294967295u);
    ::unsetenv("NVCK_RAS_DECAY");
    ::unsetenv("NVCK_SPARE_REBUILD_BLOCKS");
}
