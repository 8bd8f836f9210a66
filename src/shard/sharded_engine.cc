#include "shard/sharded_engine.hh"

#include <algorithm>
#include <thread>

namespace cenju::shard
{

namespace
{

/** Worker threads worth using (never 0). */
unsigned
hwThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/**
 * Effective shard count: at least 1, at most one shard per node, and
 * recomputed from the block size so no shard ends up empty (e.g. 5
 * nodes / 4 shards -> blocks of 2 -> 3 shards).
 */
unsigned
clampShards(unsigned shards, unsigned nodes)
{
    if (nodes == 0)
        nodes = 1;
    if (shards == 0)
        shards = 1;
    if (shards > nodes)
        shards = nodes;
    unsigned per = (nodes + shards - 1) / shards;
    return (nodes + per - 1) / per;
}

} // namespace

ShardedEngine::ShardedEngine(unsigned shards, unsigned nodes,
                             Tick lookahead)
    : _shards(clampShards(shards, nodes)),
      _nodesPerShard((std::max(nodes, 1u) + _shards - 1) / _shards),
      _lookahead(lookahead),
      _queues(std::make_unique<EventQueue[]>(_shards)),
      _inbox(std::size_t(_shards) * _shards),
      _hook(*this),
      _pool(std::min(_shards, hwThreads()))
{
    if (_lookahead == 0)
        panic("sharded engine needs a positive lookahead "
              "(transport reported minCrossShardLatency() == 0)");
    _recorders.reserve(_shards);
    for (unsigned s = 0; s < _shards; ++s) {
        _recorders.push_back(std::make_unique<ShardRecorder>());
        _queues[s].setObserver(_recorders[s].get());
    }
}

ShardedEngine::~ShardedEngine() = default;

void
ShardedEngine::crossSchedule(NodeId src, NodeId dst, Tick when,
                             EventQueue::Callback cb)
{
    unsigned ss = shardOf(src);
    unsigned ds = shardOf(dst);
    if (when < _windowEnd)
        panic("cross-shard schedule at %llu inside the current "
              "window (ends %llu): backend lookahead contract "
              "violated",
              (unsigned long long)when,
              (unsigned long long)_windowEnd);
    ShardRecorder::ChildRef ref = _recorders[ss]->takeChildRef();
    lane(ds, ss).msgs.push_back(
        InMsg{when, ref.rec, ref.childIdx, std::move(cb)});
}

void
ShardedEngine::scheduleRootOnNode(NodeId n, Tick delay,
                                  EventQueue::Callback cb)
{
    unsigned s = shardOf(n);
    _recorders[s]->beginInjected(
        0, static_cast<std::uint32_t>(_rootCounter++));
    _queues[s].scheduleAfter(delay, std::move(cb));
    _recorders[s]->endInjected();
}

bool
ShardedEngine::drained() const
{
    for (unsigned s = 0; s < _shards; ++s)
        if (!_queues[s].empty())
            return false;
    return true;
}

void
ShardedEngine::runWindow()
{
    Tick next = maxTick;
    for (unsigned s = 0; s < _shards; ++s)
        next = std::min(next, _queues[s].nextEventTick());
    if (next == maxTick)
        return; // drained
    // Jump idle gaps: safe because every not-yet-delivered cross
    // effect is already scheduled (inbox lanes drain at barriers),
    // so `next` really is the machine's next event.
    _windowStart = std::max(_windowStart, next);
    _windowEnd = _windowStart + _lookahead;
    const Tick end = _windowEnd;
    for (unsigned s = 0; s < _shards; ++s) {
        _pool.submit([this, s, end] {
            tlShard = s;
            _queues[s].runUntil(end - 1);
            tlShard = kNoShard;
        });
    }
    _pool.wait();
    barrier();
    _windowStart = end;
}

void
ShardedEngine::barrier()
{
    // (1) Same-shard child adjacency: events whose parent executed
    // in this same window, linked off the parent in schedule order.
    for (unsigned s = 0; s < _shards; ++s) {
        auto &recs = _recorders[s]->recs();
        for (std::uint32_t i = 0; i < recs.size(); ++i) {
            ShardRecorder::Rec &r = recs[i];
            if (r.resolved)
                continue;
            ShardRecorder::Rec &p =
                recs[static_cast<std::uint32_t>(r.parent)];
            if (p.firstChild == ShardRecorder::kNoRec)
                p.firstChild = i;
            else
                recs[p.lastChild].nextSibling = i;
            p.lastChild = i;
        }
    }

    // (2) Ordering pass: a priority queue over (when, parentG,
    // childIdx) replays the exact sequential execution order across
    // shards, assigning global indices and mixing the digest. Events
    // whose parent also ran this window become eligible only once
    // the parent is popped.
    auto keyAfter = [](const OrderKey &a, const OrderKey &b) {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.parentG != b.parentG)
            return a.parentG > b.parentG;
        if (a.childIdx != b.childIdx)
            return a.childIdx > b.childIdx;
        if (a.shard != b.shard)
            return a.shard > b.shard;
        return a.rec > b.rec;
    };
    _pq.clear();
    for (unsigned s = 0; s < _shards; ++s) {
        auto &recs = _recorders[s]->recs();
        for (std::uint32_t i = 0; i < recs.size(); ++i)
            if (recs[i].resolved)
                _pq.push_back(OrderKey{recs[i].when, recs[i].parent,
                                       recs[i].childIdx, s, i});
    }
    std::make_heap(_pq.begin(), _pq.end(), keyAfter);
    while (!_pq.empty()) {
        std::pop_heap(_pq.begin(), _pq.end(), keyAfter);
        OrderKey k = _pq.back();
        _pq.pop_back();
        auto &recs = _recorders[k.shard]->recs();
        ShardRecorder::Rec &r = recs[k.rec];
        r.g = ++_ordered;
        if (r.g <= _orderLimit) {
            const auto &steps = _recorders[k.shard]->steps();
            for (std::uint32_t i = r.stepBegin; i < r.stepEnd; ++i) {
                _digest = fnvMix(_digest, steps[i].kind);
                _digest = fnvMix(_digest, steps[i].at);
                _digest = fnvMix(_digest, steps[i].addr);
            }
            _digestSteps += r.stepEnd - r.stepBegin;
            if (r.finish)
                ++_finishInLimit;
        }
        for (std::uint32_t c = r.firstChild;
             c != ShardRecorder::kNoRec; c = recs[c].nextSibling) {
            recs[c].parent = r.g;
            recs[c].resolved = true;
            _pq.push_back(OrderKey{recs[c].when, r.g,
                                   recs[c].childIdx, k.shard, c});
            std::push_heap(_pq.begin(), _pq.end(), keyAfter);
        }
    }

    // (3) Stamp still-pending slots with their parent's global
    // index, so future-window tie-breaks compare resolved keys.
    for (unsigned s = 0; s < _shards; ++s) {
        ShardRecorder &rec = *_recorders[s];
        _queues[s].forEachPending(
            [&rec](std::uint32_t slot, Tick) { rec.stampSlot(slot); });
    }

    // (4) Drain the inbox lanes into the destination queues. Lane
    // messages carry their sender's record and child index; the
    // sender now has a global index, so the arrival is scheduled
    // with a fully resolved key. Queues that received arrivals are
    // re-sorted so FIFO-within-tick again equals the global order.
    for (unsigned d = 0; d < _shards; ++d) {
        bool inserted = false;
        for (unsigned s = 0; s < _shards; ++s) {
            Lane &ln = lane(d, s);
            if (ln.msgs.empty())
                continue;
            inserted = true;
            auto &senderRecs = _recorders[s]->recs();
            for (InMsg &m : ln.msgs) {
                _recorders[d]->beginInjected(
                    senderRecs[m.senderRec].g, m.childIdx);
                _queues[d].schedule(m.when, std::move(m.cb));
                _recorders[d]->endInjected();
            }
            ln.msgs.clear();
        }
        if (inserted) {
            ShardRecorder &rec = *_recorders[d];
            _queues[d].resortPending(
                [&rec](std::uint32_t a, std::uint32_t b) {
                    return rec.slotBefore(a, b);
                });
        }
    }

    // (5) Window records are spent; slots' stamped metadata lives on.
    for (unsigned s = 0; s < _shards; ++s)
        _recorders[s]->resetWindow();
}

} // namespace cenju::shard
