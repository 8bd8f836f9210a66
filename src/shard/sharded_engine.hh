/**
 * @file
 * Conservative parallel simulation of ONE machine, certified
 * bit-identical to the sequential run (docs/ARCHITECTURE.md,
 * docs/TESTING.md "Parallel determinism certification").
 *
 * Nodes are partitioned into contiguous shards, each with its own
 * EventQueue, advanced in lockstep windows of length L =
 * Transport::minCrossShardLatency() on the host ThreadPool. Within a
 * window shards share nothing: node-local events run on the owning
 * shard's queue, and a cross-shard send (always >= L ticks in the
 * future) is parked in a per-(destination, source) inbox lane —
 * single writer, drained only at the barrier, so no locks and no
 * races.
 *
 * Determinism does not come for free: two shards interleave their
 * events arbitrarily, while the digest machinery (tests/golden/)
 * certifies the exact sequential order. The engine therefore
 * reconstructs that order at every barrier from event genealogy. The
 * key fact (provable by induction over the sequential run): with
 * FIFO tie-breaking, the sequential execution order is exactly the
 * lexicographic order of
 *
 *     (when, parent's global index, child index)
 *
 * where the parent is the event whose callback scheduled this one,
 * and the child index counts that callback's schedule calls — local
 * and cross-shard alike — in program order. Driver-scheduled root
 * events hang off a virtual root with global index 0 and are
 * numbered in call order. Each barrier runs a priority-queue pass
 * over the window's executed events keyed by that triple, assigning
 * global indices, mixing the per-event check-hook steps into the
 * FNV-1a digest in exactly the sequential order, and re-sorting any
 * queue that received cross-shard arrivals so its local tie-break
 * order again agrees with the global order. Sequential runs never
 * construct this engine and never pay for it.
 *
 * Marks (EventQueue::mark) break the key fact: an event scheduled at
 * a mark takes its place from the event that reserved the mark, not
 * from the later event that schedules it, and the recorder sees only
 * the latter as its parent. resortPending would also renumber the
 * seqs every outstanding mark points into. The multistage fabric's
 * port releases are marks, which is one more reason that backend
 * clamps to one shard; the barrier calls panic on a queue that has
 * handed out a mark (ROADMAP item 5).
 */

#ifndef CENJU_SHARD_SHARDED_ENGINE_HH
#define CENJU_SHARD_SHARDED_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "check/hooks.hh"
#include "shard/context.hh"
#include "shard/router.hh"
#include "sim/event_queue.hh"
#include "sim/hashing.hh"
#include "sim/thread_pool.hh"

namespace cenju::shard
{

/**
 * Per-shard event genealogy recorder (an EventQueueObserver).
 *
 * Tracks, per callback slot, who scheduled the event (either a
 * resolved global index from an earlier window, or the in-window
 * record index of the parent) and its child index; per executed
 * event, a record with the step range it emitted. The engine's
 * barrier consumes the records, assigns global indices, and stamps
 * still-pending slots with their parent's now-resolved index.
 */
class ShardRecorder final : public EventQueueObserver
{
  public:
    static constexpr std::uint32_t kNoRec = 0xffffffffu;

    /** One executed event of the current window. */
    struct Rec
    {
        Tick when = 0;
        /** Parent's global index (resolved) or record index. */
        std::uint64_t parent = 0;
        std::uint64_t g = 0; ///< assigned by the barrier pass
        std::uint32_t childIdx = 0;
        std::uint32_t stepBegin = 0;
        std::uint32_t stepEnd = 0;
        std::uint32_t firstChild = kNoRec;
        std::uint32_t lastChild = kNoRec;
        std::uint32_t nextSibling = kNoRec;
        bool resolved = false;
        bool finish = false; ///< a node program finished here
    };

    /** One check-hook step, digest-ready. */
    struct Step
    {
        std::uint64_t kind;
        std::uint64_t at;
        std::uint64_t addr;
    };

    /** Reference to the (parent record, child index) of a schedule
     * performed by the currently executing event. */
    struct ChildRef
    {
        std::uint32_t rec;
        std::uint32_t childIdx;
    };

    // --- EventQueueObserver ---------------------------------------

    void
    onScheduled(std::uint32_t slot, Tick) override
    {
        if (slot >= _meta.size())
            _meta.resize(slot + 1);
        SlotMeta &m = _meta[slot];
        if (_injecting) {
            m.parent = _injectParent;
            m.childIdx = _injectChildIdx;
            m.resolved = true;
        } else if (_curRec != kNoRec) {
            m.parent = _curRec;
            m.childIdx = _childCounter++;
            m.resolved = false;
        } else {
            panic("sharded run: event scheduled outside an event "
                  "(use DsmSystem::scheduleOnNode for root events)");
        }
    }

    void
    onExecuteBegin(std::uint32_t slot, Tick when) override
    {
        const SlotMeta &m = _meta[slot];
        Rec r;
        r.when = when;
        r.parent = m.parent;
        r.childIdx = m.childIdx;
        r.resolved = m.resolved;
        r.stepBegin = static_cast<std::uint32_t>(_steps.size());
        r.stepEnd = r.stepBegin;
        _curRec = static_cast<std::uint32_t>(_recs.size());
        _childCounter = 0;
        _recs.push_back(r);
    }

    void
    onExecuteEnd() override
    {
        _recs[_curRec].stepEnd =
            static_cast<std::uint32_t>(_steps.size());
        _curRec = kNoRec;
    }

    // --- in-window hooks (called on this shard's worker) ----------

    /** Record one check-hook step of the executing event. */
    void
    addStep(std::uint64_t kind, std::uint64_t at, std::uint64_t addr)
    {
        _steps.push_back(Step{kind, at, addr});
    }

    /** The executing event completed a node program. */
    void markFinish() { _recs[_curRec].finish = true; }

    /** Claim the executing event's next child index (for a
     * cross-shard schedule; shares the counter with local ones). */
    ChildRef
    takeChildRef()
    {
        if (_curRec == kNoRec)
            panic("cross-shard schedule outside an event");
        return ChildRef{_curRec, _childCounter++};
    }

    // --- barrier interface (driver thread, workers quiescent) -----

    /** Bracket a schedule with an already-resolved parent (root
     * events before the run; inbox arrivals at barriers). */
    void
    beginInjected(std::uint64_t parentG, std::uint32_t childIdx)
    {
        _injecting = true;
        _injectParent = parentG;
        _injectChildIdx = childIdx;
    }

    void endInjected() { _injecting = false; }

    std::vector<Rec> &recs() { return _recs; }
    const std::vector<Step> &steps() const { return _steps; }

    /** Resolve a pending slot's parent to its global index. */
    void
    stampSlot(std::uint32_t slot)
    {
        SlotMeta &m = _meta[slot];
        if (!m.resolved) {
            m.parent = _recs[m.parent].g;
            m.resolved = true;
        }
    }

    /** Global tie-break order of two same-tick pending slots; both
     * must be stamped (resolved). */
    bool
    slotBefore(std::uint32_t a, std::uint32_t b) const
    {
        const SlotMeta &ma = _meta[a];
        const SlotMeta &mb = _meta[b];
        if (ma.parent != mb.parent)
            return ma.parent < mb.parent;
        return ma.childIdx < mb.childIdx;
    }

    /** Drop the window's records and steps (capacity retained). */
    void
    resetWindow()
    {
        _recs.clear();
        _steps.clear();
    }

  private:
    /** Genealogy of a scheduled-but-not-yet-executed event. */
    struct SlotMeta
    {
        std::uint64_t parent = 0; ///< global idx or record idx
        std::uint32_t childIdx = 0;
        bool resolved = false;
    };

    std::vector<SlotMeta> _meta; ///< indexed by callback slot
    std::vector<Rec> _recs;
    std::vector<Step> _steps;
    std::uint32_t _curRec = kNoRec;
    std::uint32_t _childCounter = 0;
    bool _injecting = false;
    std::uint64_t _injectParent = 0;
    std::uint32_t _injectChildIdx = 0;
};

/**
 * Drives one sharded machine: owns the per-shard queues, recorders,
 * inbox lanes, the worker pool, and the window/barrier loop.
 */
class ShardedEngine final : public Router
{
  public:
    /**
     * @param shards    requested shard count (clamped so every shard
     *                  owns at least one node)
     * @param nodes     simulated node count
     * @param lookahead the transport's minCrossShardLatency(); must
     *                  be > 0
     */
    ShardedEngine(unsigned shards, unsigned nodes, Tick lookahead);
    ~ShardedEngine() override;

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    // --- Router ---------------------------------------------------

    unsigned numShards() const override { return _shards; }

    unsigned
    shardOf(NodeId n) const override
    {
        return n / _nodesPerShard;
    }

    EventQueue &queueFor(NodeId n) override
    {
        return _queues[shardOf(n)];
    }

    void crossSchedule(NodeId src, NodeId dst, Tick when,
                       EventQueue::Callback cb) override;

    // --- run control (driver thread) ------------------------------

    /** Queue @p s's EventQueue (all clocks agree at barriers). */
    EventQueue &queue(unsigned s) { return _queues[s]; }

    /**
     * Schedule a root event on node @p n's shard, @p delay ticks
     * from now. Root events are globally ordered by call order —
     * call in exactly the order a sequential run would schedule
     * them, before the first runWindow().
     */
    void scheduleRootOnNode(NodeId n, Tick delay,
                            EventQueue::Callback cb);

    /** True when every shard's queue is empty. */
    bool drained() const;

    /** Advance all shards one conservative window and run the
     * ordering/digest barrier. No-op when drained. */
    void runWindow();

    /**
     * Only events with global index <= @p limit contribute to the
     * digest, step count and finish count — the sharded equivalent
     * of a sequential run stopping at an event budget even though
     * windows execute past it. Default: unlimited.
     */
    void setOrderLimit(std::uint64_t limit) { _orderLimit = limit; }

    // --- results --------------------------------------------------

    /** Events globally ordered so far (== sequential executed()). */
    std::uint64_t orderedEvents() const { return _ordered; }

    /** FNV-1a digest over steps of events within the limit;
     * bit-identical to the sequential DigestHook's. */
    std::uint64_t digest() const { return _digest; }

    /** Steps mixed into the digest. */
    std::uint64_t digestSteps() const { return _digestSteps; }

    /** Node programs finished by events within the limit. */
    std::uint64_t finishesWithinLimit() const
    {
        return _finishInLimit;
    }

    /** Call from a finishing program's event: counts toward
     * finishesWithinLimit() once the event is ordered. */
    void markTaskFinish() { _recorders[tlShard]->markFinish(); }

    /**
     * CheckHook that records steps against the recorder of the
     * shard executing the current thread's window (steps observed
     * outside a window, e.g. quiescent checks, are dropped).
     * Install on every node and the transport instead of the
     * sequential DigestHook.
     */
    check::CheckHook *checkHook() { return &_hook; }

  private:
    /** One parked cross-shard arrival. */
    struct InMsg
    {
        Tick when;
        std::uint32_t senderRec;
        std::uint32_t childIdx;
        EventQueue::Callback cb;
    };

    /** Inbox lane: written only by its source shard's worker during
     * a window, read only by the driver at the barrier. Padded so
     * lanes of different writers never share a cache line. */
    struct alignas(64) Lane
    {
        std::vector<InMsg> msgs;
    };

    /** Key of the barrier ordering pass; see the file comment. */
    struct OrderKey
    {
        Tick when;
        std::uint64_t parentG;
        std::uint32_t childIdx;
        std::uint32_t shard;
        std::uint32_t rec;
    };

    class DemuxHook final : public check::CheckHook
    {
      public:
        explicit DemuxHook(ShardedEngine &e) : _e(e) {}

        void
        onStep(check::StepKind kind, NodeId at, Addr addr) override
        {
            if (tlShard == kNoShard)
                return;
            _e._recorders[tlShard]->addStep(
                static_cast<std::uint64_t>(kind), at, addr);
        }

      private:
        ShardedEngine &_e;
    };

    void barrier();

    Lane &lane(unsigned dst, unsigned src)
    {
        return _inbox[std::size_t(dst) * _shards + src];
    }

    unsigned _shards;
    unsigned _nodesPerShard;
    Tick _lookahead;
    Tick _windowStart = 0;
    Tick _windowEnd = 0;

    /** EventQueue is pinned (non-movable): plain array, not vector. */
    std::unique_ptr<EventQueue[]> _queues;
    std::vector<std::unique_ptr<ShardRecorder>> _recorders;
    std::vector<Lane> _inbox; ///< [dst * _shards + src]
    DemuxHook _hook;
    ThreadPool _pool;

    /** Barrier ordering pass min-heap (capacity reused). */
    std::vector<OrderKey> _pq;

    std::uint64_t _ordered = 0;
    std::uint64_t _orderLimit = ~0ull;
    std::uint64_t _digest = fnvBasis;
    std::uint64_t _digestSteps = 0;
    std::uint64_t _finishInLimit = 0;
    std::uint64_t _rootCounter = 0;
};

} // namespace cenju::shard

#endif // CENJU_SHARD_SHARDED_ENGINE_HH
