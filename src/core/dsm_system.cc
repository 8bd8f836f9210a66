#include "core/dsm_system.hh"

#include <algorithm>

#include "network/network.hh"
#include "reliable/reliable_transport.hh"
#include "shard/sharded_engine.hh"
#include "transport/factory.hh"

namespace cenju
{

DsmSystem::DsmSystem(const SystemConfig &cfg) : _cfg(cfg)
{
    NetConfig nc;
    nc.numNodes = cfg.numNodes;
    nc.xbCapacity = cfg.xbCapacity;
    _net = makeTransport(cfg.transport, _eq, nc);
    if (cfg.reliability == ReliabilityKind::E2e) {
        // Decorate before anything attaches: nodes bind to the
        // wrapper, the wrapper's shims bind to the inner fabric.
        _net = std::make_unique<ReliableTransport>(std::move(_net));
    }

    unsigned shards = std::min(cfg.shards ? cfg.shards : 1u,
                               cfg.numNodes);
    if (shards > 1) {
        Tick lookahead = _net->minCrossShardLatency();
        if (lookahead == 0) {
            warn("transport \"%s\" reports no cross-shard latency "
                 "floor, so conservative windows have zero "
                 "lookahead: its tryInject() mutates switch state "
                 "synchronously with the sender, and any nonzero "
                 "window could order that mutation differently "
                 "than the sequential run. Running with 1 shard "
                 "(docs/ARCHITECTURE.md, \"Sharded parallel "
                 "simulation\").",
                 _net->name());
        } else {
            _sharded = std::make_unique<shard::ShardedEngine>(
                shards, cfg.numNodes, lookahead);
            if (!_net->bindShards(_sharded.get())) {
                fatal("transport \"%s\" reports a sharding "
                      "lookahead but refused bindShards()",
                      _net->name());
            }
        }
    }

    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        _nodes.push_back(std::make_unique<DsmNode>(
            eqForNode(n), *_net, n, cfg.proto));
        if (_sharded)
            _nodes.back()->bindShard(_sharded->shardOf(n));
    }
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        _engines.push_back(std::make_unique<MsgEngine>(*_nodes[n]));
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        _syncs.push_back(std::make_unique<SyncEngine>(_engines, n));
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        _envs.push_back(std::make_unique<Env>(
            *_nodes[n], *_engines[n], *_syncs[n]));
    }
    _shmBump.assign(cfg.numNodes, 0);

    if (cfg.proto.runtimeChecks) {
        if (_sharded) {
            // Per-step invariant checking reads state across all
            // nodes, which a mid-window worker must not do; sharded
            // harnesses check at quiescence instead
            // (docs/TESTING.md).
            warn("per-step runtime checks are unavailable on a "
                 "sharded system; relying on quiescent checks");
        } else {
            std::vector<DsmNode *> raw;
            for (auto &n : _nodes)
                raw.push_back(n.get());
            _checker = std::make_unique<check::RuntimeChecker>(
                std::move(raw),
                check::RuntimeChecker::OnViolation::Panic);
            for (auto &n : _nodes)
                n->setCheckHook(_checker.get());
            _net->setCheckHook(_checker.get());
        }
    }
}

DsmSystem::~DsmSystem() = default;

EventQueue &
DsmSystem::eqForNode(NodeId n)
{
    return _sharded ? _sharded->queueFor(n) : _eq;
}

void
DsmSystem::scheduleOnNode(NodeId n, Tick delay,
                          EventQueue::Callback cb)
{
    if (_sharded)
        _sharded->scheduleRootOnNode(n, delay, std::move(cb));
    else
        _eq.scheduleAfter(delay, std::move(cb));
}

unsigned
DsmSystem::effectiveShards() const
{
    return _sharded ? _sharded->numShards() : 1;
}

Network &
DsmSystem::network()
{
    auto *net = dynamic_cast<Network *>(_net.get());
    if (!net) {
        panic("network(): the configured transport is \"%s\", not "
              "the multistage fabric; use transport() instead",
              _net->name());
    }
    return *net;
}

ReliableTransport *
DsmSystem::reliableLayer()
{
    return dynamic_cast<ReliableTransport *>(_net.get());
}

ShmArray
DsmSystem::shmAlloc(std::size_t words, Mapping map)
{
    unsigned n = _cfg.numNodes;
    std::vector<Addr> bases(n, 0);
    auto align = [](Addr a) {
        return (a + blockBytes - 1) & ~Addr(blockBytes - 1);
    };

    switch (map.kind) {
      case Mapping::Kind::BlockCyclicAll:
        {
            std::size_t blocks =
                (words + ShmArray::wordsPerBlock - 1) /
                ShmArray::wordsPerBlock;
            std::size_t per_node = (blocks + n - 1) / n;
            for (NodeId i = 0; i < n; ++i) {
                _shmBump[i] = align(_shmBump[i]);
                bases[i] = _shmBump[i];
                _shmBump[i] += per_node * blockBytes;
            }
            break;
        }
      case Mapping::Kind::Blocked:
        {
            unsigned p = map.nodesUsed ? map.nodesUsed : n;
            if (p > n)
                fatal("mapping uses %u nodes on a %u-node system",
                      p, n);
            std::size_t chunk = (words + p - 1) / p;
            for (NodeId i = 0; i < p; ++i) {
                _shmBump[i] = align(_shmBump[i]);
                bases[i] = _shmBump[i];
                _shmBump[i] += align(chunk * 8);
            }
            break;
        }
      case Mapping::Kind::OnNode:
        {
            if (map.node >= n)
                fatal("mapping on node %u of %u", map.node, n);
            _shmBump[map.node] = align(_shmBump[map.node]);
            bases[map.node] = _shmBump[map.node];
            _shmBump[map.node] += align(words * 8);
            break;
        }
    }
    return ShmArray(map, words, n, std::move(bases));
}

PrivArray
DsmSystem::privAlloc(std::size_t words)
{
    _privBump = (_privBump + blockBytes - 1) &
                ~Addr(blockBytes - 1);
    PrivArray arr{_privBump, words};
    _privBump += ((words * 8 + blockBytes - 1) &
                  ~Addr(blockBytes - 1));
    return arr;
}

PrivArray
DsmSystem::shmAllocReplicated(std::size_t words)
{
    PrivArray arr = privAlloc(words);
    Addr lo = arr.addrOf(0);
    for (auto &n : _nodes)
        n->addReplicatedRange(lo, lo + words * 8);
    return arr;
}

ShmArray
DsmSystem::shmAllocCombinable(std::size_t words, NodeId home)
{
    if (home >= _cfg.numNodes)
        fatal("combinable array homed on node %u of %u", home,
              _cfg.numNodes);
    ShmArray arr = shmAlloc(words, Mapping::onNode(home));
    // An on-node array is contiguous in the shared address space,
    // so one range covers every word.
    Addr lo = arr.addrOf(0);
    for (auto &n : _nodes)
        n->addCombinableRange(lo, lo + words * 8);
    return arr;
}

void
DsmSystem::resetStats()
{
    for (NodeId n = 0; n < _cfg.numNodes; ++n) {
        _nodes[n]->resetStats();
        Env &e = *_envs[n];
        static_cast<EnvStats &>(e) = {};
        e.finishTick = 0;
    }
    _runStartTick = eqForNode(0).now();
}

RunStats
DsmSystem::collectStats() const
{
    RunStats r;
    for (NodeId n = 0; n < _cfg.numNodes; ++n) {
        const MasterModule &m = _nodes[n]->master();
        const Env &e = *_envs[n];
        r.instructions += e.instructions.value();
        r.memAccesses += e.memAccesses.value();
        r.cacheMisses += m.cacheMisses.value();
        r.missPrivate += m.missPrivate.value();
        r.missSharedLocal += m.missSharedLocal.value();
        r.missSharedRemote += m.missSharedRemote.value();
        r.accPrivate += m.accPrivate.value();
        r.accSharedLocal += m.accSharedLocal.value();
        r.accSharedRemote += m.accSharedRemote.value();
        r.computeTime += e.computeTime.value();
        r.memTime += e.memTime.value();
        r.syncTime += e.syncTime.value();
        r.commTime += e.commTime.value();
        if (e.finishTick > _runStartTick)
            r.execTime = std::max(r.execTime,
                                  e.finishTick - _runStartTick);
    }
    return r;
}

RunStats
DsmSystem::run(const Program &program)
{
    return runEach(std::vector<Program>(_cfg.numNodes, program));
}

RunStats
DsmSystem::runEach(const std::vector<Program> &programs)
{
    resetStats();
    // Programs resume from event callbacks; when the queues drain
    // every program must have finished, or the workload is
    // deadlocked (e.g. mismatched barriers).
    if (!runBounded(programs, unbounded).completed)
        fatal("workload deadlock: event queues drained with "
              "unfinished node programs");
    return collectStats();
}

BoundedRun
DsmSystem::runBounded(const std::vector<Program> &programs,
                      std::uint64_t budget)
{
    if (programs.size() != _cfg.numNodes)
        fatal("runBounded: %zu programs for %u nodes",
              programs.size(), _cfg.numNodes);

    std::vector<Task> tasks;
    tasks.reserve(_cfg.numNodes);
    for (NodeId n = 0; n < _cfg.numNodes; ++n) {
        tasks.push_back(programs[n](*_envs[n]));
        tasks.back().setOnFinish([this, n] {
            _envs[n]->finishTick = eqForNode(n).now();
            if (_sharded)
                _sharded->markTaskFinish();
        });
    }

    // Launch deterministically in node order.
    for (NodeId n = 0; n < _cfg.numNodes; ++n)
        scheduleOnNode(n, 0, [&tasks, n] { tasks[n].start(); });

    BoundedRun r;
    if (_sharded) {
        // The engine's counters span every run on this system:
        // bound and count this run's share of them only.
        std::uint64_t first = _sharded->orderedEvents();
        std::uint64_t finished = _sharded->finishesWithinLimit();
        std::uint64_t limit =
            budget > unbounded - first ? unbounded : first + budget;
        _sharded->setOrderLimit(limit);
        while (!_sharded->drained() &&
               _sharded->orderedEvents() < limit)
            _sharded->runWindow();
        r.completed = _sharded->finishesWithinLimit() - finished ==
                      _cfg.numNodes;
        r.events = std::min(_sharded->orderedEvents(), limit) - first;
    } else {
        while (r.events < budget && _eq.runOne())
            ++r.events;
        r.completed = std::all_of(
            tasks.begin(), tasks.end(),
            [](const Task &t) { return t.done(); });
    }
    r.budgetHit = !r.completed && r.events >= budget;
    return r;
}

} // namespace cenju
