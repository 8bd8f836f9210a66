/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, time
 * semantics, the Ring FIFO, statistics, and RNG determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/object_pool.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace cenju
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleAfter(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty)
{
    EventQueue eq;
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithPendingEvents)
{
    // Regression: now() must reach the limit even when later events
    // remain queued, so fixed-quantum callers see a consistent clock.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(20), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(25);
    EXPECT_EQ(eq.now(), 25u);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, MoveOnlyCaptureIsSchedulable)
{
    EventQueue eq;
    auto p = std::make_unique<int>(7);
    int seen = 0;
    eq.schedule(1, [q = std::move(p), &seen] { seen = *q; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

namespace
{

struct PooledThing : cenju::Pooled<PooledThing>
{
    std::uint64_t payload[4] = {};
};

} // namespace

TEST(ObjectPool, RecyclesBlocks)
{
    PooledThing::drainPool();
    auto *a = new PooledThing;
    delete a;
    EXPECT_EQ(PooledThing::pooledCount(), 1u);
    auto *b = new PooledThing; // reuses the freed block
    EXPECT_EQ(b, a);
    EXPECT_EQ(PooledThing::pooledCount(), 0u);
    delete b;
    PooledThing::drainPool();
    EXPECT_EQ(PooledThing::pooledCount(), 0u);
}

TEST(EventQueue, LargeCaptureStillRuns)
{
    // Captures past the inline capacity fall back to a heap box.
    EventQueue eq;
    std::array<std::uint64_t, 32> big{};
    big[31] = 99;
    std::uint64_t seen = 0;
    eq.schedule(1, [big, &seen] { seen = big[31]; });
    eq.run();
    EXPECT_EQ(seen, 99u);
}

TEST(EventQueue, SchedulingInPastDies)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(7, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 107u);
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

/** Contents head first, through the ring's const iterators. */
template <typename T>
std::vector<T>
contents(const Ring<T> &r)
{
    return std::vector<T>(r.begin(), r.end());
}

/**
 * A ring of four slots whose head sits at slot 2 and whose elements
 * @p vals wrap past the end of the storage (vals.size() <= 4).
 */
Ring<int>
wrappedRing(const std::vector<int> &vals)
{
    Ring<int> r;
    r.push_back(-1);
    r.push_back(-2);
    r.pop_front();
    r.pop_front();
    for (int v : vals)
        r.push_back(v);
    return r;
}

TEST(Ring, StartsEmpty)
{
    Ring<int> r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.size(), 0u);
    EXPECT_EQ(r.begin(), r.end());
}

TEST(Ring, WrapsAround)
{
    Ring<int> r = wrappedRing({1, 2, 3, 4});
    EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3, 4}));
    for (int want = 1; want <= 4; ++want) {
        EXPECT_EQ(r.front(), want);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, GrowsWhileWrappedKeepingOrder)
{
    Ring<int> r = wrappedRing({1, 2, 3, 4});
    for (int v = 5; v <= 9; ++v)
        r.push_back(v); // doubles twice: to 8 slots, then 16
    EXPECT_EQ(contents(r),
              (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], int(i) + 1);
}

TEST(Ring, InsertAtHeadMiddleAndTail)
{
    Ring<int> r = wrappedRing({1, 2, 3});
    r.insert(0, 10);
    EXPECT_EQ(contents(r), (std::vector<int>{10, 1, 2, 3}));
    r.insert(2, 20); // grows: the ring was full and wrapped
    EXPECT_EQ(contents(r), (std::vector<int>{10, 1, 20, 2, 3}));
    r.insert(r.size(), 30);
    EXPECT_EQ(contents(r), (std::vector<int>{10, 1, 20, 2, 3, 30}));
    EXPECT_EQ(r.front(), 10);
}

TEST(Ring, EraseAtHeadMiddleAndTail)
{
    Ring<int> r = wrappedRing({1, 2, 3, 4});
    r.erase(0);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 3, 4}));
    r.push_back(5);
    r.erase(1);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 4, 5}));
    r.erase(r.size() - 1);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 4}));
    r.push_back(6);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 4, 6}));
}

TEST(Ring, IteratesHeadFirst)
{
    Ring<int> r = wrappedRing({1, 2, 3, 4});
    std::vector<int> seen;
    for (int &v : r) {
        v *= 10;
        seen.push_back(v);
    }
    EXPECT_EQ(seen, (std::vector<int>{10, 20, 30, 40}));
    const Ring<int> &cr = r;
    EXPECT_EQ(contents(cr), seen);
}

/** Move-only element that counts its live instances. */
struct Tracked
{
    static int live;

    explicit Tracked(int v) : value(std::make_unique<int>(v)) { ++live; }
    Tracked(Tracked &&o) noexcept : value(std::move(o.value)) { ++live; }
    Tracked &operator=(Tracked &&o) noexcept = default;
    ~Tracked() { --live; }

    std::unique_ptr<int> value;
};
int Tracked::live = 0;

TEST(Ring, HoldsMoveOnlyElementsAndDestroysThem)
{
    {
        Ring<Tracked> r;
        for (int v = 0; v < 6; ++v)
            r.push_back(Tracked(v));
        r.pop_front();
        r.insert(1, Tracked(100));
        r.erase(3);
        std::vector<int> got;
        for (const Tracked &t : r)
            got.push_back(*t.value);
        EXPECT_EQ(got, (std::vector<int>{1, 100, 2, 4, 5}));
        EXPECT_EQ(Tracked::live, 5);

        Ring<Tracked> moved(std::move(r));
        EXPECT_EQ(moved.size(), 5u);
        EXPECT_EQ(*moved.front().value, 1);
        r = std::move(moved);
        EXPECT_EQ(r.size(), 5u);
        EXPECT_EQ(Tracked::live, 5);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(Ring, MatchesDequeUnderSeededRandomOps)
{
    Rng rng(20260517);
    Ring<int> r;
    std::deque<int> d;
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t kind = rng.below(8);
        if (kind < 3 || d.empty()) {
            r.push_back(op);
            d.push_back(op);
        } else if (kind < 5) {
            r.pop_front();
            d.pop_front();
        } else if (kind < 7) {
            std::size_t pos = rng.below(d.size() + 1);
            r.insert(pos, op);
            d.insert(d.begin() + std::ptrdiff_t(pos), op);
        } else {
            std::size_t pos = rng.below(d.size());
            r.erase(pos);
            d.erase(d.begin() + std::ptrdiff_t(pos));
        }
        ASSERT_EQ(r.size(), d.size()) << "op " << op;
        if (!d.empty()) {
            ASSERT_EQ(r.front(), d.front()) << "op " << op;
        }
        if (op % 64 == 0) {
            ASSERT_TRUE(std::equal(r.begin(), r.end(), d.begin(),
                                   d.end()))
                << "op " << op;
        }
    }
    EXPECT_TRUE(std::equal(r.begin(), r.end(), d.begin(), d.end()));
}

TEST(SampleStat, Moments)
{
    SampleStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(SampleStat, EmptyIsSafe)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SampleStat, MergeMatchesCombinedStream)
{
    SampleStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        double v = i * 0.7;
        (i % 2 ? a : b).sample(v);
        all.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(StatGroup, NamedLookupIsStable)
{
    StatGroup g("test");
    Counter &c1 = g.counter("hits");
    ++c1;
    Counter &c2 = g.counter("hits");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 1u);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.below(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // each bucket near 500
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, SampleDistinctIsDistinctAndInRange)
{
    Rng r(99);
    auto v = r.sampleDistinct(20, 100);
    ASSERT_EQ(v.size(), 20u);
    std::vector<bool> seen(100, false);
    for (auto x : v) {
        ASSERT_LT(x, 100u);
        EXPECT_FALSE(seen[x]);
        seen[x] = true;
    }
}

TEST(Rng, SampleDistinctClampsToPopulation)
{
    Rng r(5);
    auto v = r.sampleDistinct(50, 10);
    EXPECT_EQ(v.size(), 10u);
}

} // namespace
} // namespace cenju
