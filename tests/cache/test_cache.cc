#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace nvck {
namespace {

TEST(SetAssocCache, Geometry)
{
    SetAssocCache l1(64 * 1024, 2);
    EXPECT_EQ(l1.sets(), 512u);
    EXPECT_EQ(l1.lines(), 1024u);
    SetAssocCache llc(4 * 1024 * 1024, 32);
    EXPECT_EQ(llc.sets(), 2048u);
    EXPECT_EQ(llc.lines(), 65536u);
}

TEST(SetAssocCache, FillThenLookup)
{
    SetAssocCache c(8 * 1024, 4);
    EXPECT_EQ(c.lookup(0x1000), nullptr);
    CacheLine &v = c.victim(0x1000);
    c.fill(v, 0x1000, true, false);
    CacheLine *hit = c.lookup(0x1007); // same block
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->blockAddr(), 0x1000u);
    EXPECT_TRUE(hit->isPm);
    EXPECT_EQ(c.lookup(0x1040), nullptr); // next block
}

TEST(SetAssocCache, LruEvictsOldest)
{
    SetAssocCache c(4 * blockBytes, 4); // one set, 4 ways
    for (Addr a = 0; a < 4; ++a) {
        CacheLine &v = c.victim(a * blockBytes);
        EXPECT_FALSE(v.valid);
        c.fill(v, a * blockBytes, false, false);
    }
    // Touch block 0 so block 1 becomes LRU.
    ASSERT_NE(c.lookup(0), nullptr);
    CacheLine &v = c.victim(0x5000);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddr(), 1u * blockBytes);
}

TEST(SetAssocCache, OmvLinesInvisibleToLookup)
{
    SetAssocCache c(8 * 1024, 4);
    CacheLine &v = c.victim(0x2000);
    c.fill(v, 0x2000, true, false);
    c.makeOmv(v);
    EXPECT_EQ(c.lookup(0x2000), nullptr);
    ASSERT_NE(c.lookupOmv(0x2000), nullptr);
}

TEST(SetAssocCache, OmvAndNormalLineCoexist)
{
    SetAssocCache c(8 * 1024, 4);
    CacheLine &omv = c.victim(0x2000);
    c.fill(omv, 0x2000, true, false);
    c.makeOmv(omv);
    CacheLine &fresh = c.victim(0x2000);
    ASSERT_NE(&fresh, &omv);
    c.fill(fresh, 0x2000, true, true);
    EXPECT_EQ(c.lookup(0x2000), &fresh);
    EXPECT_EQ(c.lookupOmv(0x2000), &omv);
}

TEST(SetAssocCache, InvalidateClearsLine)
{
    SetAssocCache c(8 * 1024, 4);
    CacheLine &v = c.victim(0x40);
    c.fill(v, 0x40, false, true);
    c.invalidate(v);
    EXPECT_EQ(c.lookup(0x40), nullptr);
    EXPECT_FALSE(v.valid);
    EXPECT_FALSE(v.dirty);
}

} // namespace
} // namespace nvck
