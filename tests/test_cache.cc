/**
 * @file
 * Unit tests for the secondary cache model.
 */

#include <gtest/gtest.h>

#include "memory/address_map.hh"
#include "memory/main_memory.hh"
#include "memory/msg_queue.hh"
#include "protocol/cache.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

TEST(Cache, Geometry)
{
    Cache c(1u << 20); // 1 MB, 2-way, 128 B lines
    EXPECT_EQ(c.lineCount(), 8192u);
    EXPECT_EQ(c.sets(), 4096u);
    EXPECT_EQ(Cache::assoc, 2u);
}

TEST(Cache, LookupMissOnEmpty)
{
    Cache c(1u << 14);
    EXPECT_EQ(c.lookup(0x1000), nullptr);
}

TEST(Cache, FillAndHit)
{
    Cache c(1u << 14);
    CacheLine *line = c.allocate(0x1000);
    ASSERT_NE(line, nullptr);
    line->tag = blockBase(0x1000);
    line->state = CacheState::Shared;
    line->data.w[3] = 0xdead;
    c.touch(*line);

    CacheLine *hit = c.lookup(0x1008);
    ASSERT_EQ(hit, line); // same block
    EXPECT_EQ(hit->data.w[3], 0xdeadu);
    EXPECT_EQ(c.lookup(0x1080), nullptr); // next block
}

TEST(Cache, LruVictimSelection)
{
    // A 2-line, 2-way cache has a single set, so every address
    // conflicts and replacement is pure LRU.
    Cache c(2 * blockBytes);
    ASSERT_EQ(c.sets(), 1u);

    CacheLine *w0 = c.allocate(0);
    w0->tag = 0;
    w0->state = CacheState::Exclusive;
    c.touch(*w0);
    CacheLine *w1 = c.allocate(blockBytes);
    ASSERT_NE(w1, w0);
    w1->tag = blockBytes;
    w1->state = CacheState::Exclusive;
    c.touch(*w1);

    c.touch(*w0); // w1 becomes LRU
    CacheLine *victim = c.allocate(2 * blockBytes);
    EXPECT_EQ(victim, w1);
}

TEST(Cache, PinnedLinesAreNotVictims)
{
    Cache c(2 * blockBytes); // 1 set x 2 ways
    CacheLine *a = c.allocate(0);
    a->tag = 0;
    a->state = CacheState::Modified;
    a->pinned = true;
    c.touch(*a);
    CacheLine *b = c.allocate(blockBytes * 1); // same set
    ASSERT_NE(b, a);
    b->tag = blockBytes;
    b->state = CacheState::Modified;
    b->pinned = true;
    c.touch(*b);

    EXPECT_EQ(c.allocate(2 * blockBytes), nullptr);
    a->pinned = false;
    EXPECT_EQ(c.allocate(2 * blockBytes), a);
}

TEST(Cache, PrivateAndSharedTagsDistinct)
{
    Cache c(1u << 14);
    Addr priv = addr_map::makePrivate(0x2000);
    Addr shared = addr_map::makeShared(0, 0x2000);
    ASSERT_NE(priv, shared);
    CacheLine *lp = c.allocate(priv);
    lp->tag = blockBase(priv);
    lp->state = CacheState::Modified;
    c.touch(*lp);
    EXPECT_EQ(c.lookup(shared), nullptr);
    EXPECT_NE(c.lookup(priv), nullptr);
}

TEST(Cache, ValidLinesFootprint)
{
    Cache c(1u << 14);
    Rng rng(4);
    unsigned filled = 0;
    for (int i = 0; i < 50; ++i) {
        Addr a = rng.below(1u << 20) * blockBytes;
        if (c.lookup(a))
            continue;
        CacheLine *l = c.allocate(a);
        ASSERT_NE(l, nullptr);
        if (!l->valid())
            ++filled;
        l->tag = blockBase(a);
        l->state = CacheState::Shared;
        c.touch(*l);
    }
    EXPECT_EQ(c.validLines(), filled);
}

TEST(AddressMap, RoundTrip)
{
    Addr a = addr_map::makeShared(513, 0x1234560);
    EXPECT_TRUE(addr_map::isShared(a));
    EXPECT_EQ(addr_map::homeNode(a), 513u);
    EXPECT_EQ(addr_map::offset(a), 0x1234560u);

    Addr p = addr_map::makePrivate(0x7fffff8);
    EXPECT_FALSE(addr_map::isShared(p));
    EXPECT_EQ(addr_map::offset(p), 0x7fffff8u);
}

TEST(AddressMap, FortyBitLayout)
{
    Addr a = addr_map::makeShared(1023, (Addr(1) << 29) - 8);
    EXPECT_LT(a, Addr(1) << 40);
    EXPECT_EQ(addr_map::homeNode(a), 1023u);
    EXPECT_EQ(addr_map::blockOffset(a),
              ((Addr(1) << 29) - 8) & ~Addr(blockBytes - 1));
}

TEST(MsgQueue, FifoAndHighWater)
{
    MsgQueue<int> q("test", 3);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.highWater(), 3u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    q.push(4);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.highWater(), 3u);
}

TEST(MsgQueue, OverflowPanics)
{
    MsgQueue<int> q("test", 1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "overflow");
}

TEST(MainMemory, ZeroFillAndWordAccess)
{
    MainMemory m;
    EXPECT_EQ(m.readWord(0x100), 0u);
    m.writeWord(0x100, 42);
    EXPECT_EQ(m.readWord(0x100), 42u);
    Block b = m.readBlock(0x100 >> blockShift);
    EXPECT_EQ(b.w[(0x100 & (blockBytes - 1)) / 8], 42u);
    b.w[0] = 7;
    m.writeBlock(0x100 >> blockShift, b);
    EXPECT_EQ(m.readWord(0x100 & ~Addr(blockBytes - 1)), 7u);
}

} // namespace
} // namespace cenju
