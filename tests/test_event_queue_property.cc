/**
 * @file
 * EventQueue property tests (src/sim/event_queue.hh).
 *
 * The kernel's ordering contract — earliest tick first, FIFO among
 * events scheduled for the same tick — is what every golden digest
 * in tests/golden/ ultimately rests on, and what the sharded
 * engine's barrier re-establishes after merging cross-shard
 * arrivals. This file checks that contract against a trivially
 * correct reference model under randomized schedule/run
 * interleavings, plus the slot-recycling behavior the sharded
 * recorder depends on.
 *
 * Set CENJU_FUZZ_SEED to reproduce or vary a randomized run; the
 * default seed is fixed so plain ctest is deterministic.
 *
 * Note: the queue deliberately has no cancel/deschedule API — an
 * event once scheduled always runs. Components "cancel" work by
 * making the callback a no-op behind their own state, which keeps
 * the kernel allocation-free and the genealogy of the sharded
 * recorder complete. A mark nothing is scheduled at is not a
 * cancelled event but one that never exists: it takes a seq and
 * nothing else, so the events that do run keep their order. If a
 * cancel API is ever added, the recorder's slot metadata and these
 * properties must be revisited.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sim/event_queue.hh"

using namespace cenju;

namespace
{

/** splitmix64: tiny deterministic PRNG for the property runs. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }
};

std::uint64_t
fuzzSeed()
{
    if (const char *s = std::getenv("CENJU_FUZZ_SEED"))
        return std::strtoull(s, nullptr, 10);
    return 0xc4a114ull; // fixed default
}

/** Reference model: (when, seq) pairs, stable-min extraction. */
struct ModelEvent
{
    Tick when;
    std::uint64_t seq;
    unsigned id;
};

} // namespace

TEST(EventQueueProperty, FifoAmongSameTickEvents)
{
    EventQueue eq;
    std::vector<unsigned> order;
    for (unsigned i = 0; i < 100; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 100u);
    for (unsigned i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(eq.now(), 5u);
}

namespace
{

/**
 * One queue under a random mix of schedules and marks at delays on
 * both sides of the calendar span (the calendar and the overflow
 * heap), with everything scheduled recorded as (when, seq) for the
 * reference sort. The model's seq counts schedule() and mark()
 * calls, exactly as the queue's does.
 */
struct MixedRun
{
    using Mark = EventQueue::Mark;

    /** A reserved mark and its seq in the model's numbering. */
    struct Reserved
    {
        Mark mark;
        std::uint64_t seq;
    };

    explicit MixedRun(std::uint64_t seed) : rng{seed} {}

    /** A delay weighted to the calendar's edges: 0, small, span - 1,
     * span, span + 1 and a few spans, so same-tick events meet from
     * both structures and bucket indices wrap. */
    Tick
    delay()
    {
        constexpr Tick span = EventQueue::calendarSpan;
        switch (rng.below(8)) {
          case 0:
            return 0;
          case 1:
          case 2:
            return 1 + rng.below(15);
          case 3:
            return span - 1;
          case 4:
            return span;
          case 5:
            return span + 1;
          default:
            return span * (2 + rng.below(3)) + rng.below(3) - 1;
        }
    }

    EventQueue eq;
    Rng rng;
    std::vector<ModelEvent> model;
    std::vector<unsigned> executed;
    std::vector<Reserved> reserved; ///< marks nothing is at yet
    std::uint64_t seq = 0;

    void
    schedule(Tick when, bool schedulesMark)
    {
        auto id = static_cast<unsigned>(model.size());
        model.push_back(ModelEvent{when, seq++, id});
        eq.schedule(when, [this, id, schedulesMark] {
            executed.push_back(id);
            if (schedulesMark)
                scheduleReserved();
        });
    }

    void
    reserve(Tick when)
    {
        reserved.push_back(Reserved{eq.mark(when), seq++});
    }

    /** Schedule a random reserved mark, unless it is reached: then
     * it stays unscheduled for good. */
    void
    scheduleReserved()
    {
        if (reserved.empty())
            return;
        std::size_t k = rng.below(reserved.size());
        Reserved r = reserved[k];
        reserved.erase(reserved.begin() + std::ptrdiff_t(k));
        if (eq.reached(r.mark))
            return;
        auto id = static_cast<unsigned>(model.size());
        model.push_back(ModelEvent{r.mark.when, r.seq, id});
        eq.scheduleAt(r.mark,
                      [this, id] { executed.push_back(id); });
    }

    /** size(), empty() and nextEventTick() against the model. */
    void
    checkPending() const
    {
        std::vector<bool> ran(model.size(), false);
        for (unsigned id : executed)
            ran[id] = true;
        std::size_t pending = 0;
        Tick next = maxTick;
        for (const ModelEvent &e : model) {
            if (!ran[e.id]) {
                ++pending;
                next = std::min(next, e.when);
            }
        }
        ASSERT_EQ(eq.size(), pending);
        ASSERT_EQ(eq.empty(), pending == 0);
        ASSERT_EQ(eq.nextEventTick(), next);
    }
};

} // namespace

TEST(EventQueueProperty, RandomInterleavingMatchesReferenceModel)
{
    Rng seeds{fuzzSeed()};
    for (unsigned round = 0; round < 20; ++round) {
        MixedRun r(seeds.next());

        // Random mix of zero-delay schedules, timed schedules, marks
        // reserved at offsets >= 0 (now() included), marks scheduled
        // from outside any event, events that schedule a mark when
        // they run, runOne() calls and runUntil() jumps, at offsets
        // on both sides of the calendar span, then a full drain.
        // Marks still reserved at the end are never scheduled.
        for (unsigned op = 0; op < 400; ++op) {
            Tick now = r.eq.now();
            switch (r.rng.below(11)) {
              case 0:
                r.schedule(now, false);
                break;
              case 1:
              case 2:
                r.schedule(now + 1 + r.rng.below(15), false);
                break;
              case 3:
                r.reserve(now + r.rng.below(16));
                break;
              case 4:
                r.scheduleReserved();
                break;
              case 5:
                r.schedule(now + r.rng.below(8), true);
                break;
              case 6:
                r.schedule(now + r.delay(), r.rng.below(2) == 0);
                break;
              case 7:
                r.reserve(now + r.delay());
                break;
              case 8:
                r.eq.runUntil(now + r.delay());
                break;
              default:
                r.eq.runOne();
                break;
            }
            r.checkPending();
        }
        while (r.eq.runOne()) {
        }

        // The queue's contract: everything scheduled runs in
        // (when, seq) order, whether it was scheduled into the
        // calendar, on the heap or at a mark reserved earlier.
        std::vector<ModelEvent> model = r.model;
        std::sort(model.begin(), model.end(),
                  [](const ModelEvent &a, const ModelEvent &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      return a.seq < b.seq;
                  });
        ASSERT_EQ(r.executed.size(), model.size())
            << "round " << round << " seed " << fuzzSeed();
        for (std::size_t i = 0; i < model.size(); ++i)
            ASSERT_EQ(r.executed[i], model[i].id)
                << "position " << i << " round " << round << " seed "
                << fuzzSeed();
    }
}

TEST(EventQueueProperty, LaneEntriesAreSeenByEveryQuery)
{
    EventQueue eq;
    std::vector<int> order;
    // Three zero-delay events in the calendar's bucket at now()
    // (what was once a separate lane) and one timed event in a
    // later bucket.
    for (int i = 0; i < 3; ++i)
        eq.schedule(0, [&order, i] { order.push_back(i); });
    eq.schedule(4, [&order] { order.push_back(3); });
    EXPECT_EQ(eq.size(), 4u);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), 0u);
    std::vector<std::pair<std::uint32_t, Tick>> seen;
    eq.forEachPending([&seen](std::uint32_t slot, Tick when) {
        seen.emplace_back(slot, when);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(seen[i], std::make_pair(i, i < 3 ? Tick(0) : 4));

    // resortPending flushes the calendar onto the heap: reversing
    // the slot order reverses the three same-tick events, which the
    // bucket alone would have run in schedule order.
    eq.resortPending(
        [](std::uint32_t a, std::uint32_t b) { return a > b; });
    EXPECT_EQ(eq.size(), 4u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 3}));
}

TEST(EventQueueProperty, RunUntilDrainsTheLaneAtItsLimit)
{
    // An event at the limit schedules a zero-delay follower, which
    // lands in the calendar's bucket at the limit (what was once a
    // separate lane) and must run before runUntil returns; the
    // follower's own timed child stays queued.
    EventQueue eq;
    std::vector<Tick> ran;
    eq.schedule(10, [&] {
        ran.push_back(eq.now());
        eq.scheduleAfter(0, [&] {
            ran.push_back(eq.now());
            eq.scheduleAfter(1, [&] { ran.push_back(eq.now()); });
        });
    });
    EXPECT_EQ(eq.runUntil(10), 2u);
    EXPECT_EQ(ran, (std::vector<Tick>{10, 10}));
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventTick(), 11u);
    EXPECT_EQ(eq.runUntil(11), 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueProperty, HeapEventRunsBeforeALaterCalendarEventAtItsTick)
{
    // An event scheduled the span or more ahead waits on the
    // overflow heap. Events scheduled later for the same tick, from
    // within the span, go into the calendar with newer seqs: the
    // heap's event must run first at that tick, then the calendar's
    // in seq order, and last the zero-delay event the heap's event
    // schedules.
    constexpr Tick span = EventQueue::calendarSpan;
    for (Tick ahead : {span, span + 1, 3 * span}) {
        EventQueue eq;
        std::vector<int> order;
        eq.schedule(ahead, [&] {
            order.push_back(1);
            eq.scheduleAfter(0, [&] { order.push_back(4); });
        });
        eq.schedule(ahead - span + 1, [&] {
            eq.schedule(ahead, [&] { order.push_back(2); });
            eq.schedule(ahead, [&] { order.push_back(3); });
        });
        EXPECT_EQ(eq.nextEventTick(), ahead - span + 1);
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4})) << ahead;
    }
}

TEST(EventQueueProperty, MarkReservedBeyondTheSpanKeepsItsPlace)
{
    // A mark is reserved two spans ahead (seq 1), then an event is
    // scheduled at its tick, which goes on the heap (seq 2). Once
    // that tick is within the span, an event scheduled for it goes
    // into the calendar (seq 4), and only then is an event
    // scheduled at the mark, which the calendar must put ahead of
    // seq 4. They must run in seq order: the mark's event, the
    // heap's, then the calendar's.
    constexpr Tick span = EventQueue::calendarSpan;
    EventQueue eq;
    std::vector<int> order;
    EventQueue::Mark m = eq.mark(2 * span);
    eq.schedule(2 * span, [&] { order.push_back(2); });
    eq.schedule(span + 1, [&] {
        eq.schedule(2 * span, [&] { order.push_back(3); });
        eq.scheduleAt(m, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.reached(m));
}

TEST(EventQueueProperty, CalendarBucketsWrapAroundTheSpan)
{
    // From now() = span - 8, the ticks of the next span map to
    // bucket indices that wrap past the calendar's end: now() + 8
    // is bucket 0, and now() + span - 1 lands just below now()'s
    // own bucket, so it is found last. Scheduled in scrambled order,
    // the events must still run in tick order, lap after lap.
    constexpr Tick span = EventQueue::calendarSpan;
    EventQueue eq;
    std::vector<Tick> ran;
    for (Tick base = span - 8; base < 4 * span; base += span - 1) {
        eq.runUntil(base);
        ran.clear();
        for (Tick d : {span - 1, Tick(20), Tick(7), Tick(8), Tick(0),
                       span / 2, Tick(9), span - 9, span - 8})
            eq.scheduleAfter(d, [&] { ran.push_back(eq.now()); });
        EXPECT_EQ(eq.nextEventTick(), base);
        eq.run();
        std::vector<Tick> expect;
        for (Tick d : {Tick(0), Tick(7), Tick(8), Tick(9), Tick(20),
                       span / 2, span - 9, span - 8, span - 1})
            expect.push_back(base + d);
        EXPECT_EQ(ran, expect) << "lap from " << base;
    }
}

TEST(EventQueueProperty, MarkAtNowReadsReachedOnceTheQueuePassesIt)
{
    // An event at tick 10 reserves a mark at 10 and never schedules
    // it. In a queue that had scheduled the event instead, the
    // event would run before run() or runUntil(10) returned, so the
    // mark must read as reached after both.
    {
        EventQueue eq;
        EventQueue::Mark m;
        eq.schedule(10, [&] { m = eq.mark(10); });
        eq.run();
        EXPECT_TRUE(eq.reached(m));
    }
    {
        EventQueue eq;
        EventQueue::Mark m;
        eq.schedule(10, [&] { m = eq.mark(10); });
        eq.schedule(20, [] {});
        eq.runUntil(10);
        EXPECT_TRUE(eq.reached(m));
        EXPECT_EQ(eq.size(), 1u);
    }
    // A runOne() loop that stops early stands at the last event it
    // ran, before the mark's seq: the mark is still ahead, and
    // scheduling at it from outside any event puts its event ahead
    // of a same-tick event reserved after it.
    {
        EventQueue eq;
        EventQueue::Mark m;
        bool done = false;
        std::vector<int> order;
        eq.schedule(10, [&] {
            m = eq.mark(10);
            eq.scheduleAfter(0, [&] { order.push_back(2); });
            done = true;
        });
        while (!done && eq.runOne()) {
        }
        EXPECT_FALSE(eq.reached(m));
        eq.scheduleAt(m, [&] { order.push_back(1); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
        EXPECT_TRUE(eq.reached(m));
    }
    // The default mark is reached from the start: a port that was
    // never granted is free.
    EventQueue fresh;
    EXPECT_TRUE(fresh.reached(EventQueue::Mark{}));
}

TEST(EventQueueProperty, RunUntilAdvancesNowAndLeavesLaterEvents)
{
    EventQueue eq;
    std::vector<Tick> ran;
    for (Tick t : {3u, 7u, 10u, 11u, 20u})
        eq.schedule(t, [&ran, &eq] { ran.push_back(eq.now()); });

    EXPECT_EQ(eq.runUntil(10), 3u);
    EXPECT_EQ(eq.now(), 10u); // clamped up to the limit
    EXPECT_EQ(eq.size(), 2u);

    // An empty stretch still advances the clock — the sharded
    // window loop relies on this to keep all shard clocks in step.
    EXPECT_EQ(eq.runUntil(15), 1u);
    EXPECT_EQ(eq.now(), 15u);

    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(ran.size(), 5u);
}

TEST(EventQueueProperty, NowNeverMovesBackward)
{
    Rng rng{fuzzSeed() ^ 0xabcdefull};
    EventQueue eq;
    Tick last = 0;
    for (unsigned op = 0; op < 300; ++op) {
        if (rng.below(2) == 0)
            eq.scheduleAfter(rng.below(8), [] {});
        else
            eq.runOne();
        EXPECT_GE(eq.now(), last);
        last = eq.now();
    }
    eq.run();
    EXPECT_GE(eq.now(), last);
}

namespace
{

/** Records the slot ids the queue hands out. */
class SlotTap final : public EventQueueObserver
{
  public:
    std::vector<std::uint32_t> scheduled;

    void
    onScheduled(std::uint32_t slot, Tick) override
    {
        scheduled.push_back(slot);
    }

    void onExecuteBegin(std::uint32_t, Tick) override {}
    void onExecuteEnd() override {}
};

} // namespace

TEST(EventQueueProperty, SlotsAreRecycledNotGrown)
{
    EventQueue eq;
    SlotTap tap;
    eq.setObserver(&tap);

    // A steady schedule/run cycle must reuse the freed slot instead
    // of growing storage: the kernel's allocation-free claim
    // (docs/PERF.md) and the sharded recorder's slot-keyed metadata
    // both depend on slot ids staying dense.
    for (unsigned i = 0; i < 10; ++i) {
        eq.scheduleAfter(1, [] {});
        eq.runOne();
    }
    ASSERT_EQ(tap.scheduled.size(), 10u);
    for (std::uint32_t slot : tap.scheduled)
        EXPECT_EQ(slot, 0u); // the single slot recycles forever

    // With two in flight the queue needs exactly two slots.
    tap.scheduled.clear();
    for (unsigned i = 0; i < 6; ++i) {
        eq.scheduleAfter(1, [] {});
        eq.scheduleAfter(2, [] {});
        eq.runOne();
        eq.runOne();
    }
    for (std::uint32_t slot : tap.scheduled)
        EXPECT_LT(slot, 2u);
    eq.setObserver(nullptr);
}

TEST(EventQueueProperty, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runOne();
    ASSERT_EQ(eq.now(), 10u);
    EXPECT_DEATH(eq.schedule(9, [] {}), "past");
}

TEST(EventQueueProperty, SchedulingAtAReachedMarkPanics)
{
    EventQueue eq;
    EventQueue::Mark m = eq.mark(5);
    eq.schedule(5, [] {});
    eq.run();
    ASSERT_TRUE(eq.reached(m));
    EXPECT_DEATH(eq.scheduleAt(m, [] {}), "reached mark");
}

TEST(EventQueueProperty, ShardBarrierOnAMarkingQueuePanics)
{
    // Marks take their order from the reserving event, which the
    // sharded recorder does not track, and resortPending renumbers
    // seqs: a queue that marks cannot be sharded (ROADMAP item 5).
    EventQueue eq;
    eq.schedule(3, [] {});
    (void)eq.mark(3);
    EXPECT_DEATH(eq.forEachPending([](std::uint32_t, Tick) {}),
                 "ROADMAP item 5");
    EXPECT_DEATH(eq.resortPending([](std::uint32_t a,
                                     std::uint32_t b) { return a < b; }),
                 "ROADMAP item 5");
}
