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
 *  - the heap: schedule() for a later tick pushes a (when, seq)
 *    record onto a binary heap;
 *  - the lane: schedule() for now() appends to a FIFO. Every lane
 *    entry is at now() and lane seqs grow in push order, so the
 *    lane is already sorted and costs O(1); runOne() takes
 *    whichever of the lane head and the heap top comes first;
 *  - a mark: mark() reserves the next seq for a tick without
 *    scheduling anything, and scheduleAt() later puts an event at
 *    exactly that (when, seq) point. A mark nothing is scheduled at
 *    costs nothing: it is an event that never exists. The fabric
 *    marks each port's release point at grant and schedules the
 *    release only when a packet is waiting for it, so a release
 *    that runs has the place a release scheduled at every grant
 *    would have had (PortRelease, network/xbar_switch.hh).
 *
 * The kernel is allocation-free in steady state (docs/PERF.md):
 * callbacks are InlineFunction with 64 bytes of inline capture
 * storage, the heap and the lane hold small (when, seq, slot)
 * records, and callback slots are recycled through a freelist, so a
 * typical schedule/run cycle touches the heap allocator zero times.
 */

#ifndef CENJU_SIM_EVENT_QUEUE_HH
#define CENJU_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "inline_function.hh"
#include "logging.hh"
#include "ring.hh"
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
        Entry e{when, _nextSeq++, store(std::move(cb))};
        if (when == _now)
            _lane.push_back(e);
        else
            push(e);
        if (_observer)
            _observer->onScheduled(e.slot, when);
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
        Entry e{m.when, m.seq, store(std::move(cb))};
        push(e);
        if (_observer)
            _observer->onScheduled(e.slot, m.when);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(_now + delay, std::move(cb));
    }

    /** True if no events remain. */
    bool empty() const { return _heap.empty() && _lane.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return _heap.size() + _lane.size(); }

    /** Time of the next pending event (maxTick if none). */
    Tick
    nextEventTick() const
    {
        if (!_lane.empty())
            return _now; // lane entries are all at now()
        return _heap.empty() ? maxTick : _heap.front().when;
    }

    /**
     * Run one event; advances now() to its timestamp.
     * @retval true if an event ran, false if the queue was empty.
     */
    bool
    runOne()
    {
        if (empty()) {
            _passedSeq = _nextSeq;
            return false;
        }
        Entry e = takeNext();
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
        while (!empty() && nextEventTick() <= limit) {
            runOne();
            ++n;
        }
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
        for (const Entry &e : _lane)
            fn(e.slot, e.when);
        for (const Entry &e : _heap)
            fn(e.slot, e.when);
    }

    /**
     * Re-establish the tie-break order of all pending events: sort
     * by tick, breaking ties with @p slotLess over callback slots,
     * and reassign dense insertion sequence numbers in that order.
     * A sorted array satisfies the binary-heap invariant, so the
     * result is a valid heap. The sharded engine calls this after a
     * window barrier merges cross-shard arrivals, restoring the tie
     * order the sequential run would have used.
     */
    template <typename SlotLess>
    void
    resortPending(SlotLess &&slotLess)
    {
        checkUnmarked();
        for (; !_lane.empty(); _lane.pop_front())
            _heap.push_back(_lane.front());
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
    /** Heap record; the callback lives in _slots[slot]. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Strict ordering: earliest tick first, FIFO within a tick. */
    static bool
    before(const Entry &a, const Entry &b)
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
        }
        return slot;
    }

    void
    push(const Entry &e)
    {
        _heap.push_back(e);
        siftUp(_heap.size() - 1);
    }

    /** Remove and return the first pending entry. @pre !empty() */
    Entry
    takeNext()
    {
        if (!_lane.empty() &&
            (_heap.empty() || before(_lane.front(), _heap.front()))) {
            Entry e = _lane.front();
            _lane.pop_front();
            return e;
        }
        Entry e = _heap.front();
        popTop();
        return e;
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

    std::vector<Entry> _heap;
    Ring<Entry> _lane; ///< events at now(), in seq order
    std::vector<Callback> _slots;      ///< indexed by Entry::slot
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
