/**
 * @file
 * DsmSystem: the library's top-level public API.
 *
 * Builds a complete simulated Cenju-4 — N nodes, the multistage
 * network, protocol engines, message passing — and runs SPMD
 * coroutine programs against it:
 *
 * @code
 * cenju::SystemConfig cfg;
 * cfg.numNodes = 16;
 * cenju::DsmSystem sys(cfg);
 * auto x = sys.shmAlloc(1024, cenju::Mapping::blocked());
 * sys.run([&](cenju::Env &env) -> cenju::Task {
 *     co_await env.put(x, env.id(), 1.0);
 *     co_await env.barrier();
 *     double v = co_await env.get(x, (env.id() + 1) %
 *                                        env.numNodes());
 *     (void)v;
 * });
 * @endcode
 */

#ifndef CENJU_CORE_DSM_SYSTEM_HH
#define CENJU_CORE_DSM_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "check/invariants.hh"
#include "check/trace.hh"
#include "core/env.hh"
#include "core/mapping.hh"
#include "core/sync.hh"
#include "exec/task.hh"
#include "msgpass/msg_engine.hh"
#include "node/dsm_node.hh"
#include "reliable/kind.hh"
#include "sim/event_queue.hh"
#include "sim/text.hh"

namespace cenju
{

class Network;
class ReliableTransport;

namespace shard
{
class ShardedEngine;
}

/** Whole-system configuration. */
struct SystemConfig
{
    /** Nodes (1 .. 1024). */
    unsigned numNodes = 16;

    /** Crosspoint buffer capacity per switch. */
    unsigned xbCapacity = 8;

    /**
     * Interconnect backend (docs/ARCHITECTURE.md): the multistage
     * fabric by default, overridable per process with
     * CENJU_TRANSPORT=<name>.
     */
    TransportKind transport =
        envOr("CENJU_TRANSPORT", TransportKind::Multistage);

    /**
     * Delivery-guarantee layer (docs/ARCHITECTURE.md "Reliability
     * layer"): e2e wraps the transport backend in the go-back-N
     * reliability decorator, which is what makes the illegal
     * drop/dup/corrupt fault classes survivable. Off by default,
     * overridable per process with CENJU_RELIABILITY=<name>. The
     * wrapper has no cross-shard latency floor, so e2e systems
     * always clamp to one shard.
     */
    ReliabilityKind reliability =
        envOr("CENJU_RELIABILITY", ReliabilityKind::Off);

    /**
     * Simulation shards (docs/ARCHITECTURE.md "Sharded parallel
     * simulation"). 1 = classic sequential simulation on one event
     * queue. N > 1 partitions the nodes into N contiguous blocks,
     * each simulated on its own event queue in conservative windows
     * on a host thread pool; results — including the golden step
     * digests — are bit-identical to the sequential run. Clamped to
     * numNodes, and silently back to 1 on backends that report no
     * cross-shard latency floor (the multistage fabric).
     */
    unsigned shards = 1;

    /** Protocol, cache and timing parameters. */
    ProtocolConfig proto;
};

/** Aggregated per-run execution statistics. */
struct RunStats
{
    Tick execTime = 0; ///< latest node finish time

    std::uint64_t instructions = 0;
    std::uint64_t memAccesses = 0;

    // memory access breakdown (all accesses)
    std::uint64_t accPrivate = 0;
    std::uint64_t accSharedLocal = 0;
    std::uint64_t accSharedRemote = 0;

    // secondary cache misses
    std::uint64_t cacheMisses = 0;
    std::uint64_t missPrivate = 0;
    std::uint64_t missSharedLocal = 0;
    std::uint64_t missSharedRemote = 0;

    Tick computeTime = 0; ///< summed over nodes
    Tick memTime = 0;
    Tick syncTime = 0;
    Tick commTime = 0;

    double
    missRatio() const
    {
        return memAccesses
            ? double(cacheMisses) / double(memAccesses)
            : 0.0;
    }

    /** Fraction of synchronization in total node-time. */
    double
    syncFraction(unsigned num_nodes) const
    {
        double total = double(execTime) * num_nodes;
        return total > 0 ? double(syncTime) / total : 0.0;
    }
};

/** A complete simulated machine. */
class DsmSystem
{
  public:
    explicit DsmSystem(const SystemConfig &cfg);
    ~DsmSystem();

    DsmSystem(const DsmSystem &) = delete;
    DsmSystem &operator=(const DsmSystem &) = delete;

    /** Allocate a shared array of 64-bit words. */
    ShmArray shmAlloc(std::size_t words, Mapping map);

    /** Allocate a private array (same offset on every node). */
    PrivArray privAlloc(std::size_t words);

    /**
     * Allocate a *replicated* array (the paper's future-work
     * update-type protocol): every node holds a local copy in its
     * own memory, loads are always satisfied locally, and stores
     * multicast word updates to all replicas with in-network
     * gathered acknowledgements. Callers must keep a single writer
     * per element between synchronizations (owner-computes), as
     * concurrent writers to one word may leave replicas ordered
     * differently.
     */
    PrivArray shmAllocReplicated(std::size_t words);

    /**
     * Allocate a *combinable* array of synchronization words homed
     * on @p home (ROADMAP item 4): words operated on only through
     * Env::atomicFetchAdd/Min/Max/Swap. They are never cached — the
     * home applies each op straight to memory, bypassing the
     * directory — which is what lets concurrent requests to one
     * word combine in flight (in the switches on the multistage
     * fabric, at a hardware station on the ideal backend, in
     * per-node software trees on the direct backend). Plain
     * loads/stores to these words are a programming error.
     */
    ShmArray shmAllocCombinable(std::size_t words, NodeId home = 0);

    // cenju-lint: allow(A002): a program factory is called once per
    // node per run, never on the per-event path.
    using Program = std::function<Task(Env &)>;

    /**
     * Run one SPMD program: @p program is instantiated once per
     * node and all instances execute to completion.
     * @return wall-clock statistics for this run
     */
    RunStats run(const Program &program);

    /** Run distinct programs per node (size must equal numNodes). */
    RunStats runEach(const std::vector<Program> &programs);

    /**
     * Replay a model-checker counterexample trace (docs/CHECKING.md)
     * on THIS system, batch by batch, panicking at the first
     * invariant violation — the debugger-friendly reproduction path
     * for tools/modelcheck --replay. The system must have been built
     * with numNodes == t.cfg.nodes and proto matching t.cfg
     * (protocol flavour and injected bug).
     * @retval false if an operation of the trace never completed
     *         (starvation counterexample)
     */
    bool replayTrace(const check::Trace &t);

    // --- component access (benches, tests) -------------------------

    /**
     * The sequential event queue. Only meaningful on a 1-shard
     * system; sharded systems drive per-shard queues through the
     * engine and callers should use eqForNode()/scheduleOnNode().
     */
    EventQueue &eq() { return _eq; }

    /** Event queue node @p n's events run on (shard-aware). */
    EventQueue &eqForNode(NodeId n);

    /**
     * Schedule a driver-side root event on node @p n's queue, @p
     * delay ticks from now. On a sharded system root events are
     * globally ordered by call order — call in exactly the order a
     * sequential run would schedule them, before the run starts.
     */
    void scheduleOnNode(NodeId n, Tick delay,
                        EventQueue::Callback cb);

    /** Shards actually running (after clamping); 1 = sequential. */
    unsigned effectiveShards() const;

    /** The sharded engine, or nullptr on a sequential system. */
    shard::ShardedEngine *shardedEngine() { return _sharded.get(); }

    /** The interconnect, whatever the configured backend. */
    Transport &transport() { return *_net; }

    /**
     * The multistage fabric. Panics unless the configured backend
     * is TransportKind::Multistage — callers poking at switches or
     * topology should either require that backend or go through
     * transport().
     */
    Network &network();

    /**
     * The reliability decorator, or nullptr when the system was
     * built with ReliabilityKind::Off (the stress harness and the
     * benches read its retransmit/dedup counters through this).
     */
    ReliableTransport *reliableLayer();

    DsmNode &node(NodeId n) { return *_nodes[n]; }
    Env &env(NodeId n) { return *_envs[n]; }
    unsigned numNodes() const { return _cfg.numNodes; }
    const SystemConfig &config() const { return _cfg; }

    /**
     * Zero every node's master, home and slave statistics, its
     * sentCount() and its Env accounting; run() calls this first.
     * Fabric statistics (Transport::netStats()) are not reset.
     */
    void resetStats();

    /** Aggregate statistics since the last reset. */
    RunStats collectStats() const;

  private:
    SystemConfig _cfg;
    EventQueue _eq;
    /** Set when cfg.shards clamps above 1 on a shardable backend. */
    std::unique_ptr<shard::ShardedEngine> _sharded;
    std::unique_ptr<Transport> _net;
    std::vector<std::unique_ptr<DsmNode>> _nodes;

    /** Self-checking mode (proto.runtimeChecks / CENJU_CHECK):
     * panics at the first invariant violation of any run. */
    std::unique_ptr<check::RuntimeChecker> _checker;
    std::vector<std::unique_ptr<MsgEngine>> _engines;
    std::vector<std::unique_ptr<SyncEngine>> _syncs;
    std::vector<std::unique_ptr<Env>> _envs;

    /** Per-node bump allocator for the shared segment (offsets). */
    std::vector<Addr> _shmBump;

    /** Bump allocator for private offsets (same on every node). */
    Addr _privBump = 0;

    /** Clock at the last resetStats(): run() reports from here. */
    Tick _runStartTick = 0;
};

} // namespace cenju

#endif // CENJU_CORE_DSM_SYSTEM_HH
