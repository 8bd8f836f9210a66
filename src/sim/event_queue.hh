/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives one simulated system. Events are
 * arbitrary callables scheduled at absolute ticks and run in
 * (when, seq) order, where seq counts schedule() and mark() calls,
 * so ties break by insertion order and simulations are fully
 * deterministic. An event gets its place in that order in one of
 * three ways:
 *
 *  - the calendar: schedule() for a tick less than calendarSpan
 *    ticks ahead appends the event to that tick's bucket. The
 *    calendar has one bucket per tick of the span, indexed by the
 *    tick's low bits; every event in it lies in [now(), now() +
 *    span), so a bucket holds one tick at a time. A new event's seq
 *    is the newest, so appending keeps each bucket in seq order at
 *    O(1), and an occupancy bitmap finds the first non-empty bucket
 *    from now(). The model's hit, hop and memory delays are all
 *    shorter than the span, and the bucket at now() holds the
 *    zero-delay events, among them the switch arbitrations that
 *    can grant;
 *  - the overflow heap: schedule() for a tick the span or more
 *    ahead pushes a (when, seq) record onto a binary heap. runOne()
 *    runs whichever of the calendar's first event and the heap top
 *    comes first in (when, seq), so a heap event keeps its place
 *    among calendar events scheduled later for its tick;
 *  - a mark: mark() reserves the next seq for a tick without
 *    scheduling anything, and scheduleAt() later puts an event at
 *    exactly that (when, seq) point: in order within its bucket, or
 *    on the heap when the mark is the span or more ahead. A mark
 *    nothing is scheduled at costs nothing: it is an event that
 *    never exists. The fabric marks each port's release point at
 *    grant, and each switch output's arbitration point when it is
 *    woken, and schedules the release or the arbitration there
 *    only once a packet can move, so one that runs has the place
 *    an event scheduled every time would have had (PortRelease,
 *    network/xbar_switch.hh).
 *
 * The kernel is allocation-free in steady state (docs/PERF.md):
 * callbacks are InlineFunction with 64 bytes of inline capture
 * storage, callback slots are recycled through a freelist, the
 * calendar threads its buckets through per-slot (when, seq, next)
 * records, and the heap holds small (when, seq, slot) records, so a
 * typical schedule/run cycle touches the heap allocator zero times.
 */

#ifndef CENJU_SIM_EVENT_QUEUE_HH
#define CENJU_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "inline_function.hh"
#include "logging.hh"
#include "types.hh"

namespace cenju
{

/**
 * Observes one EventQueue's schedule/execute lifecycle, keyed by the
 * callback slot (stable from onScheduled until the matching
 * onExecuteBegin; slots are recycled after that). Used by the
 * sharded engine (src/shard) to reconstruct the sequential global
 * event order across per-shard queues; sequential runs never attach
 * one, so the only cost on that path is a null-pointer test.
 */
class EventQueueObserver
{
  public:
    virtual ~EventQueueObserver() = default;

    /** A new event landed in slot @p slot for tick @p when. */
    virtual void onScheduled(std::uint32_t slot, Tick when) = 0;

    /** The event in @p slot is about to run (slot already freed —
     * read any per-slot metadata before the callback schedules). */
    virtual void onExecuteBegin(std::uint32_t slot, Tick when) = 0;

    /** The running event's callback returned. */
    virtual void onExecuteEnd() = 0;
};

/**
 * Time-ordered queue of callbacks; the heart of the simulator.
 *
 * All components sharing a system hold a reference to the same queue.
 * The queue is not thread-safe; a system is simulated on one thread.
 */
class EventQueue
{
  public:
    /** Move-only callback; captures <= 64 bytes never allocate. */
    using Callback = InlineFunction<void()>;

    /**
     * A reserved (when, seq) point in the event order. The default
     * mark precedes every event (seqs start at 1), so it reads as
     * reached from the start.
     */
    struct Mark
    {
        Tick when = 0;
        std::uint64_t seq = 0;
    };

    /** Events less than this many ticks ahead go into the calendar;
     * later ones go on the overflow heap. */
    static constexpr Tick calendarSpan = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback cb)
    {
        checkNotPast(when);
        std::uint32_t slot = store(std::move(cb));
        std::uint64_t seq = _nextSeq++;
        if (when - _now < calendarSpan)
            append(Link{when, seq, noSlot}, slot);
        else
            push(Entry{when, seq, slot});
        if (_observer)
            _observer->onScheduled(slot, when);
    }

    /**
     * Reserve the next place in the order at tick @p when without
     * scheduling anything: the point an event scheduled here and
     * now would take.
     * @pre when >= now()
     */
    Mark
    mark(Tick when)
    {
        checkNotPast(when);
        _marked = true;
        return Mark{when, _nextSeq++};
    }

    /**
     * True once the queue has passed @p m: while an event runs, the
     * queue stands at that event's (now(), seq), so a mark at or
     * before it is reached. After runOne() reports the queue empty
     * or runUntil() returns, every event at now() has run, so every
     * mark at now() reserved before then is reached too. Callers
     * that stop a runOne() loop early stand at the last event run.
     */
    bool
    reached(Mark m) const
    {
        return m.when < _now ||
               (m.when == _now && m.seq < _passedSeq);
    }

    /**
     * Schedule @p cb at mark @p m's exact (when, seq) point.
     * @pre !reached(m), and nothing is scheduled at @p m yet
     */
    void
    scheduleAt(Mark m, Callback cb)
    {
        if (reached(m))
            panic("scheduling at a reached mark (%llu, seq %llu)",
                  (unsigned long long)m.when,
                  (unsigned long long)m.seq);
        std::uint32_t slot = store(std::move(cb));
        if (m.when - _now < calendarSpan)
            insert(Link{m.when, m.seq, noSlot}, slot);
        else
            push(Entry{m.when, m.seq, slot});
        if (_observer)
            _observer->onScheduled(slot, m.when);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(_now + delay, std::move(cb));
    }

    /** True if no events remain. */
    bool empty() const { return _calendarSize == 0 && _heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return _calendarSize + _heap.size(); }

    /** Time of the next pending event (maxTick if none). */
    Tick
    nextEventTick() const
    {
        Tick next = _heap.empty() ? maxTick : _heap.front().when;
        if (std::uint32_t slot = calendarFirst(); slot != noSlot)
            next = std::min(next, _links[slot].when);
        return next;
    }

    /**
     * Run one event; advances now() to its timestamp.
     * @retval true if an event ran, false if the queue was empty.
     */
    bool
    runOne()
    {
        if (runFirst(maxTick))
            return true;
        _passedSeq = _nextSeq;
        return false;
    }

    /** Run until the queue drains. @return number of events run. */
    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (runOne())
            ++n;
        return n;
    }

    /**
     * Run events with timestamps <= @p limit; leaves later events
     * queued. On return now() == max(limit, previous now()) whether
     * or not events remain — callers advancing a system in fixed
     * quanta observe the same clock either way.
     */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (runFirst(limit))
            ++n;
        if (_now <= limit) {
            _now = limit;
            _passedSeq = _nextSeq;
        }
        return n;
    }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /** Attach (or detach, nullptr) a lifecycle observer. */
    void setObserver(EventQueueObserver *o) { _observer = o; }

    // --- barrier support (src/shard window synchronization) --------
    //
    // Both calls panic once the queue has handed out a mark: the
    // sharded engine cannot place marks yet (shard/sharded_engine.hh,
    // ROADMAP item 5).

    /** Visit every pending event as (slot, when). */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        checkUnmarked();
        forEachCalendared(
            [&](std::uint32_t slot) { fn(slot, _links[slot].when); });
        for (const Entry &e : _heap)
            fn(e.slot, e.when);
    }

    /**
     * Re-establish the tie-break order of all pending events: flush
     * the calendar onto the heap, sort by tick, breaking ties with
     * @p slotLess over callback slots, and reassign dense insertion
     * sequence numbers in that order. A sorted array satisfies the
     * binary-heap invariant, so the result is a valid heap, and
     * runOne() compares the events scheduled later, in the calendar,
     * against its top as usual. The sharded engine calls this after
     * a window barrier merges cross-shard arrivals, restoring the tie
     * order the sequential run would have used.
     */
    template <typename SlotLess>
    void
    resortPending(SlotLess &&slotLess)
    {
        checkUnmarked();
        forEachCalendared([this](std::uint32_t slot) {
            const Link &l = _links[slot];
            _heap.push_back(Entry{l.when, l.seq, slot});
        });
        _occupied.fill(0);
        _calendarSize = 0;
        std::sort(_heap.begin(), _heap.end(),
                  [&](const Entry &a, const Entry &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      return slotLess(a.slot, b.slot);
                  });
        for (std::size_t i = 0; i < _heap.size(); ++i)
            _heap[i].seq = i + 1;
        _nextSeq = _heap.size() + 1;
        _passedSeq = 1; // no renumbered event has run
    }

  private:
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);
    static constexpr std::size_t occupancyWords = calendarSpan / 64;

    /** Heap record; the callback lives in _slots[slot]. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** A calendar event's place, kept per slot: next is the slot
     * after it in its bucket. */
    struct Link
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t next;
    };

    /** One tick's calendar events, in seq order; valid while the
     * bucket's occupancy bit is set. */
    struct Bucket
    {
        std::uint32_t head = noSlot;
        std::uint32_t tail = noSlot;
    };

    /** Strict ordering: earliest tick first, FIFO within a tick. */
    template <typename A, typename B>
    static bool
    before(const A &a, const B &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void
    checkNotPast(Tick when) const
    {
        if (when < _now)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_now);
    }

    void
    checkUnmarked() const
    {
        if (_marked)
            panic("shard barrier on a queue that handed out marks: "
                  "marks are not recorded in the shard genealogy "
                  "(ROADMAP item 5)");
    }

    /** Park @p cb in a free slot. @return the slot */
    std::uint32_t
    store(Callback &&cb)
    {
        std::uint32_t slot;
        if (!_freeSlots.empty()) {
            slot = _freeSlots.back();
            _freeSlots.pop_back();
            _slots[slot] = std::move(cb);
        } else {
            slot = static_cast<std::uint32_t>(_slots.size());
            _slots.push_back(std::move(cb));
            _links.emplace_back();
        }
        return slot;
    }

    /** Add @p l's event in @p slot at the end of its bucket. @pre its
     * seq is the newest in the bucket */
    void
    append(const Link &l, std::uint32_t slot)
    {
        _links[slot] = l;
        std::size_t i = l.when % calendarSpan;
        Bucket &b = _buckets[i];
        if (occupied(i)) {
            _links[b.tail].next = slot;
        } else {
            b.head = slot;
            _occupied[i / 64] |= bit(i);
        }
        b.tail = slot;
        ++_calendarSize;
    }

    /** Add @p l's event in @p slot to its bucket in seq order. */
    void
    insert(const Link &l, std::uint32_t slot)
    {
        std::size_t i = l.when % calendarSpan;
        Bucket &b = _buckets[i];
        if (!occupied(i) || _links[b.tail].seq < l.seq) {
            append(l, slot);
            return;
        }
        // A later seq is in the bucket, so the walk stops before its
        // end and the tail stays.
        std::uint32_t *at = &b.head;
        while (_links[*at].seq < l.seq)
            at = &_links[*at].next;
        _links[slot] = Link{l.when, l.seq, *at};
        *at = slot;
        ++_calendarSize;
    }

    /** Bucket @p i's bit in its occupancy word. */
    static std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t(1) << (i % 64);
    }

    bool
    occupied(std::size_t i) const
    {
        return (_occupied[i / 64] & bit(i)) != 0;
    }

    /** Slot of the calendar's first event, or noSlot if it is empty.
     * Its ticks lie in [now(), now() + span), so the first occupied
     * bucket at or after now()'s, wrapping round, holds the earliest
     * tick. */
    std::uint32_t
    calendarFirst() const
    {
        if (_calendarSize == 0)
            return noSlot;
        std::size_t i = _now % calendarSpan;
        std::size_t w = i / 64;
        std::uint64_t bits = _occupied[w] & -bit(i); // bits >= i
        while (bits == 0) {
            w = (w + 1) % occupancyWords;
            bits = _occupied[w];
        }
        return _buckets[w * 64 + std::countr_zero(bits)].head;
    }

    /** Remove the calendar's first event, in @p slot. */
    void
    popCalendar(std::uint32_t slot)
    {
        std::size_t i = _links[slot].when % calendarSpan;
        _buckets[i].head = _links[slot].next;
        if (_buckets[i].head == noSlot)
            _occupied[i / 64] &= ~bit(i);
        --_calendarSize;
    }

    /** Visit the slot of every calendar event. */
    template <typename Fn>
    void
    forEachCalendared(Fn &&fn) const
    {
        for (std::size_t w = 0; w < occupancyWords; ++w) {
            for (std::uint64_t bits = _occupied[w]; bits != 0;
                 bits &= bits - 1) {
                const Bucket &b =
                    _buckets[w * 64 + std::countr_zero(bits)];
                for (std::uint32_t s = b.head; s != noSlot;
                     s = _links[s].next)
                    fn(s);
            }
        }
    }

    /**
     * Run the first pending event if its tick is <= @p limit.
     * @retval false if none is, leaving now() as it was
     */
    bool
    runFirst(Tick limit)
    {
        std::uint32_t slot = calendarFirst();
        bool fromHeap = !_heap.empty() &&
                        (slot == noSlot ||
                         before(_heap.front(), _links[slot]));
        if (!fromHeap && slot == noSlot)
            return false;
        Entry e = fromHeap
                      ? _heap.front()
                      : Entry{_links[slot].when, _links[slot].seq, slot};
        if (e.when > limit)
            return false;
        if (fromHeap)
            popTop();
        else
            popCalendar(slot);
        // The callback may schedule new events, so move it out of
        // its slot (and recycle the slot) before invoking.
        Callback cb = std::move(_slots[e.slot]);
        _freeSlots.push_back(e.slot);
        _now = e.when;
        _passedSeq = e.seq + 1;
        ++_executed;
        if (_observer) {
            _observer->onExecuteBegin(e.slot, e.when);
            cb();
            _observer->onExecuteEnd();
        } else {
            cb();
        }
        return true;
    }

    void
    push(const Entry &e)
    {
        _heap.push_back(e);
        siftUp(_heap.size() - 1);
    }

    void
    siftUp(std::size_t i)
    {
        Entry item = _heap[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!before(item, _heap[parent]))
                break;
            _heap[i] = _heap[parent];
            i = parent;
        }
        _heap[i] = item;
    }

    /** Remove the root, restoring the heap property. */
    void
    popTop()
    {
        Entry last = _heap.back();
        _heap.pop_back();
        std::size_t n = _heap.size();
        if (n == 0)
            return;
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                before(_heap[child + 1], _heap[child]))
                ++child;
            if (!before(_heap[child], last))
                break;
            _heap[i] = _heap[child];
            i = child;
        }
        _heap[i] = last;
    }

    std::array<Bucket, calendarSpan> _buckets;
    /** Bit i is set while _buckets[i] is non-empty. */
    std::array<std::uint64_t, occupancyWords> _occupied{};
    std::size_t _calendarSize = 0;
    std::vector<Entry> _heap; ///< events the span or more ahead
    std::vector<Callback> _slots; ///< indexed by slot
    std::vector<Link> _links;     ///< indexed by slot
    std::vector<std::uint32_t> _freeSlots;
    Tick _now = 0;
    std::uint64_t _nextSeq = 1; ///< seq 0 is the default Mark's
    /** Every seq below this at tick now() has been passed. */
    std::uint64_t _passedSeq = 1;
    std::uint64_t _executed = 0;
    bool _marked = false; ///< mark() was called (checkUnmarked)
    EventQueueObserver *_observer = nullptr;
};

} // namespace cenju

#endif // CENJU_SIM_EVENT_QUEUE_HH
