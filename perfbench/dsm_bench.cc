/**
 * @file
 * Repository benchmark program (perfbench/README.md).
 *
 * One process measures one workload. It builds the workload through
 * the public DsmSystem / Env / NpbApp API with a pinned
 * configuration, times set-up and runs from outside, checks every
 * output, and prints each metric by name with its unit. The last
 * line of standard output is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Usage:
 *
 *   dsm_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--wrong-reference]
 *
 * --trace 0 repeats untraced runs for S seconds and reports the
 * end-to-end metrics. --trace 1 alternates an untraced run with a
 * traced one (always one shard) for S seconds and reports the
 * per-layer metrics. The traced run attaches only public
 * observer seams from this file: an EventQueueObserver that clocks
 * every callback, check hooks on every node and on the transport, and
 * a pass-through fault hook that labels fabric activity. Every
 * simulated number must be identical across runs and between the
 * traced and untraced runs; a mismatch counts as a failed check.
 *
 * --smoke shrinks every workload to a few nodes (self_test.py), and
 * --wrong-reference perturbs the committed reference value so that
 * the self-test can see the output checks fail.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dsm_system.hh"
#include "memory/address_map.hh"
#include "network/network.hh"
#include "sim/rng.hh"
#include "workload/npb.hh"

namespace cenju::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Host-speed calibration. The 4-core Xeon host this benchmark was
 * defined on switches between a fast and a 1.4-1.6x slower speed for
 * seconds to minutes at a time, which stretches every host time
 * alike. A fixed kernel that uses no simulator code (a binary heap of
 * event times plus scattered reads and writes over an 8 MB table, the
 * simulator's access pattern in miniature) is timed next to every
 * run, and the end-to-end host times are rescaled by
 * probeReferenceS / probe time: they read as seconds on a host where
 * the probe takes probeReferenceS, its time on that host when fast.
 * On two sets of 8 runs of cg128_multicast there, it cut the
 * run-to-run spread (quartile distance over median) of
 * accesses_per_s from 0.23 and 0.14 to 0.07 and 0.08.
 */
constexpr double probeReferenceS = 0.055;

/** Keeps the probe's result alive so its loop is not optimized out. */
volatile std::uint64_t probeSink;

double
probeSeconds()
{
    // One table for the whole process, so that every call touches the
    // same pages.
    static std::vector<std::uint64_t> table(std::size_t(1) << 20, 1);
    std::vector<std::uint64_t> heap;
    std::uint64_t r = 88172645463325252ull;
    auto step = [&r] {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        return r;
    };
    for (int i = 0; i < 4096; ++i)
        heap.push_back(step() >> 20);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());

    auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int i = 0; i < 600000; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        std::uint64_t when = heap.back();
        std::uint64_t x = step();
        std::uint64_t &w = table[(when ^ x) & (table.size() - 1)];
        acc += w;
        w = acc ^ x;
        heap.back() = when + (x & 1023);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    double s = secondsSince(t0);
    probeSink = acc;
    return s;
}

// --- workloads ------------------------------------------------------

/** The paper-scaled secondary cache of bench/app_bench.hh. */
constexpr unsigned benchCacheBytes = 8u << 10;

/** Paper Figure 10 at 1024 sharers: the model (EXPERIMENTS.md) and
 * the paper's reported value. */
constexpr double fig10ModelNs = 4920.0;
constexpr double fig10PaperNs = 6300.0;

enum class Kind
{
    Npb,
    Storm,
};

/** Problem size of one workload at one scale. */
struct Scale
{
    unsigned nodes = 0;
    NpbConfig npb;              ///< NPB workloads
    double reference = 0.0;     ///< committed NPB checksum
    unsigned rounds = 0;        ///< storm workload
    unsigned opsPerNode = 0;    ///< storm fetch-adds per round
};

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    AppKind app;
    Variant variant;
    /** dsm1 only repartitions loops: the checksum must equal the
     * sequential program's. */
    bool matchesSeq;
    unsigned shards;
    Scale full;
    Scale smoke;
};

NpbConfig
cgConfig(unsigned rows)
{
    NpbConfig c;
    c.iterations = 1;
    c.dataMappings = true;
    c.cgRows = rows;
    c.cgNnzPerRow = 8;
    return c;
}

NpbConfig
btConfig(unsigned grid)
{
    NpbConfig c;
    c.iterations = 1;
    c.dataMappings = true;
    c.grid = grid;
    return c;
}

Scale
npbScale(unsigned nodes, NpbConfig cfg, double reference)
{
    Scale s;
    s.nodes = nodes;
    s.npb = cfg;
    s.reference = reference;
    return s;
}

Scale
stormScale(unsigned nodes, unsigned rounds, unsigned ops)
{
    Scale s;
    s.nodes = nodes;
    s.rounds = rounds;
    s.opsPerNode = ops;
    return s;
}

/**
 * The four workloads (README.md says why each exists). The NPB
 * problems are bench/app_bench.hh's paper-scaled ones, pinned here so
 * that CENJU_QUICK cannot change them; their checksums are committed
 * reference values, recorded from this program.
 */
std::vector<WorkloadSpec>
workloads()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return {
        {"cg128_multicast", Kind::Npb, AppKind::CG, Variant::Dsm1,
         true, 1,
         npbScale(128, cgConfig(16384), 31106.80224609375),
         npbScale(16, cgConfig(2048), 3880.533935546875)},
        {"bt64_private", Kind::Npb, AppKind::BT, Variant::Dsm2,
         false, 1,
         npbScale(64, btConfig(64), 746106.87999999989),
         npbScale(8, btConfig(16), 5760.639765625001)},
        {"bt64_writeback", Kind::Npb, AppKind::BT, Variant::Dsm1,
         true, 1,
         npbScale(64, btConfig(64), 742359.0399999998),
         npbScale(8, btConfig(16), 5724.1595312500012)},
        {"storm1024", Kind::Storm, AppKind::CG, Variant::Seq, false,
         std::min(4u, hw),
         stormScale(1024, 4, 8),
         stormScale(16, 2, 2)},
    };
}

/** The configuration every workload pins (no environment default
 * reaches the measured system). */
SystemConfig
pinnedConfig(unsigned nodes, unsigned shards)
{
    SystemConfig sc;
    sc.numNodes = nodes;
    sc.transport = TransportKind::Multistage;
    sc.reliability = ReliabilityKind::Off;
    sc.shards = shards;
    sc.proto.protocol = ProtocolKind::Queuing;
    sc.proto.runtimeChecks = false;
    sc.proto.cacheBytes = benchCacheBytes;
    return sc;
}

/** Counts checked results; prints the first few failures. */
class Checks
{
  public:
    void
    expect(bool ok, const char *fmt, ...)
    {
        ++_attempted;
        if (ok)
            return;
        if (++_failed <= 20) {
            std::va_list args;
            va_start(args, fmt);
            std::printf("check failed: ");
            std::vprintf(fmt, args);
            std::printf("\n");
            va_end(args);
        }
    }

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** One built workload: a fresh system whose caches start empty. */
class Instance
{
  public:
    explicit Instance(const SystemConfig &cfg)
        : _sys(std::make_unique<DsmSystem>(cfg))
    {}
    virtual ~Instance() = default;

    DsmSystem &sys() { return *_sys; }

    virtual RunStats run() = 0;

    /** Verify the run's outputs. */
    virtual void check(Checks &c, bool wrong_reference) = 0;

    /** Application checksum (0 where there is none). */
    virtual double checksum() const { return 0.0; }

    /** Median latency of the n-way-shared store (0 where none). */
    virtual double wideStoreNs() const { return 0.0; }

  protected:
    /** Every node program reached its end. */
    void
    checkFinished(Checks &c)
    {
        for (NodeId n = 0; n < _sys->numNodes(); ++n) {
            c.expect(_sys->env(n).finishTick > 0,
                     "node %u program did not finish", n);
        }
    }

    std::unique_ptr<DsmSystem> _sys;
};

class NpbInstance final : public Instance
{
  public:
    NpbInstance(const WorkloadSpec &w, const Scale &s, Variant v,
                const SystemConfig &cfg)
        : Instance(cfg), _app(makeNpbApp(w.app, v, s.npb)),
          _reference(s.reference)
    {
        _app->setup(*_sys);
    }

    RunStats
    run() override
    {
        return _sys->run(
            [this](Env &env) -> Task { return _app->program(env); });
    }

    void
    check(Checks &c, bool wrong_reference) override
    {
        checkFinished(c);
        double ref = wrong_reference ? _reference + 1.0 : _reference;
        c.expect(_app->checksum() == ref,
                 "checksum %.17g != committed reference %.17g",
                 _app->checksum(), ref);
    }

    double checksum() const override { return _app->checksum(); }

  private:
    std::unique_ptr<NpbApp> _app;
    double _reference;
};

/**
 * Synthetic SPMD sync storm, seeded. Each round:
 *  1. every node fetch-adds one combinable word opsPerNode times
 *     (in-switch combining);
 *  2. every node reads one block, then one seeded node (never the
 *     home) writes it while the others compute: an (n-1)-way
 *     multicast invalidation with in-network gathering, the
 *     Figure 10 point at 1024 nodes;
 *  3. every node stores a seeded value to one block (the home's
 *     conflict queue, Figure 6), then reads it back;
 *  4. every node read-modify-writes one migratory block chosen by a
 *     seeded permutation;
 * with barriers between the phases.
 */
class StormInstance final : public Instance
{
  public:
    static constexpr std::size_t W = ShmArray::wordsPerBlock;

    StormInstance(const Scale &s, std::uint64_t seed,
                  const SystemConfig &cfg)
        : Instance(cfg), _n(cfg.numNodes), _rounds(s.rounds),
          _ops(s.opsPerNode)
    {
        Rng rng(seed);
        _ctrHome = NodeId(rng.below(_n));
        auto shared_home = NodeId(rng.below(_n));
        auto storm_home = NodeId(rng.below(_n));
        _ctr = _sys->shmAllocCombinable(1, _ctrHome);
        _shared =
            _sys->shmAlloc(_rounds * W, Mapping::onNode(shared_home));
        _storm =
            _sys->shmAlloc(_rounds * W, Mapping::onNode(storm_home));
        _mig = _sys->shmAlloc(_n * W, Mapping::blockCyclic());

        _writer.resize(_rounds);
        _perm.resize(std::size_t(_rounds) * _n);
        _values.resize(std::size_t(_rounds) * _n);
        for (unsigned r = 0; r < _rounds; ++r) {
            _writer[r] =
                NodeId((shared_home + 1 + rng.below(_n - 1)) % _n);
            std::vector<std::uint32_t> perm = rng.sampleDistinct(_n, _n);
            std::copy(perm.begin(), perm.end(),
                      _perm.begin() + std::size_t(r) * _n);
            for (NodeId i = 0; i < _n; ++i)
                _values[std::size_t(r) * _n + i] = rng.next() | 1;
        }
        _readBack.assign(std::size_t(_rounds) * _n, 0);
        _migFinal.assign(_n, 0);
        _storeNs.assign(_rounds, 0.0);
    }

    RunStats
    run() override
    {
        return _sys->run(
            [this](Env &env) -> Task { return program(env); });
    }

    void
    check(Checks &c, bool wrong_reference) override
    {
        checkFinished(c);

        // Combinable words are never cached: the home memory holds
        // the final value.
        Addr a = _ctr.addrOf(0);
        std::uint64_t total =
            _sys->node(_ctrHome).sharedMem().readWord(
                addr_map::offset(a));
        std::uint64_t want = std::uint64_t(_n) * _ops * _rounds +
                             (wrong_reference ? 1 : 0);
        c.expect(total == want, "fetch-add word %llu != %llu",
                 (unsigned long long)total, (unsigned long long)want);

        for (unsigned r = 0; r < _rounds; ++r) {
            const std::uint64_t *stored = &_values[std::size_t(r) * _n];
            const std::uint64_t *seen = &_readBack[std::size_t(r) * _n];
            bool was_stored =
                std::find(stored, stored + _n, seen[0]) != stored + _n;
            for (NodeId i = 0; i < _n; ++i) {
                c.expect(was_stored && seen[i] == seen[0],
                         "round %u: node %u read %llx from the store "
                         "block, node 0 read %llx",
                         r, i, (unsigned long long)seen[i],
                         (unsigned long long)seen[0]);
            }
        }
        for (NodeId b = 0; b < _n; ++b) {
            c.expect(_migFinal[b] == _rounds,
                     "migratory block %u holds %llu, want %u", b,
                     (unsigned long long)_migFinal[b], _rounds);
        }
    }

    double
    wideStoreNs() const override
    {
        return median(_storeNs);
    }

  private:
    Task
    program(Env &env)
    {
        const NodeId me = env.id();
        // Long enough for the wide store to finish before the other
        // nodes' barrier traffic enters the fabric.
        const std::uint64_t quiet_instrs = 20000;
        for (unsigned r = 0; r < _rounds; ++r) {
            for (unsigned k = 0; k < _ops; ++k)
                (void)co_await env.atomicFetchAdd(_ctr.addrOf(0), 1);
            co_await env.barrier();

            (void)co_await env.getBits(_shared, r * W);
            co_await env.barrier();
            if (me == _writer[r]) {
                Tick t0 = env.now();
                co_await env.putBits(_shared, r * W, r + 1);
                _storeNs[r] = double(env.now() - t0);
            } else {
                co_await env.compute(quiet_instrs);
            }
            co_await env.barrier();

            co_await env.putBits(_storm, r * W,
                                 _values[std::size_t(r) * _n + me]);
            co_await env.barrier();
            _readBack[std::size_t(r) * _n + me] =
                co_await env.getBits(_storm, r * W);

            std::size_t blk = _perm[std::size_t(r) * _n + me] * W;
            std::uint64_t v = co_await env.getBits(_mig, blk);
            co_await env.putBits(_mig, blk, v + 1);
            co_await env.barrier();
        }
        _migFinal[me] = co_await env.getBits(_mig, me * W);
    }

    unsigned _n;
    unsigned _rounds;
    unsigned _ops;
    NodeId _ctrHome = 0;
    ShmArray _ctr;
    ShmArray _shared;
    ShmArray _storm;
    ShmArray _mig;
    std::vector<NodeId> _writer;
    std::vector<NodeId> _perm;
    std::vector<std::uint64_t> _values;
    std::vector<std::uint64_t> _readBack;
    std::vector<std::uint64_t> _migFinal;
    std::vector<double> _storeNs;
};

std::unique_ptr<Instance>
makeInstance(const WorkloadSpec &w, const Scale &s, std::uint64_t seed,
             unsigned shards)
{
    SystemConfig cfg = pinnedConfig(s.nodes, shards);
    if (w.kind == Kind::Storm)
        return std::make_unique<StormInstance>(s, seed, cfg);
    return std::make_unique<NpbInstance>(w, s, w.variant, cfg);
}

/** The sequential program's checksum (one node, same problem). */
double
seqChecksum(const WorkloadSpec &w, const Scale &s)
{
    NpbInstance seq(w, s, Variant::Seq, pinnedConfig(1, 1));
    seq.run();
    return seq.checksum();
}

// --- observation ----------------------------------------------------

/** Events executed so far on every queue the system runs on. */
std::uint64_t
eventsExecuted(DsmSystem &sys)
{
    std::vector<const EventQueue *> seen{&sys.eq()};
    std::uint64_t total = sys.eq().executed();
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
        const EventQueue *q = &sys.eqForNode(n);
        if (std::find(seen.begin(), seen.end(), q) == seen.end()) {
            seen.push_back(q);
            total += q->executed();
        }
    }
    return total;
}

/**
 * The traced run's observer. It clocks every event callback and puts
 * the callback's host time into one bucket: protocol (the event
 * performed an engine step), fabric (it touched the fabric but
 * performed no engine step) or other. It also pairs each MasterIssue
 * with the next MasterGrant for the same node and block, which gives
 * the shared-miss latency distribution. As a fault hook it returns
 * base capacities and never holds, so the run is unperturbed.
 */
class Tracer final : public EventQueueObserver,
                     public check::CheckHook,
                     public fault::FaultHook
{
  public:
    explicit Tracer(const EventQueue &eq) : _eq(eq) {}

    void onScheduled(std::uint32_t, Tick) override {}

    void
    onExecuteBegin(std::uint32_t, Tick) override
    {
        _labels = 0;
        _t0 = Clock::now();
    }

    void
    onExecuteEnd() override
    {
        double dt = secondsSince(_t0);
        if (_labels & stepLabel)
            protocolS += dt;
        else if (_labels & fabricLabel)
            fabricS += dt;
        else
            otherS += dt;
    }

    void
    onStep(check::StepKind kind, NodeId at, Addr addr) override
    {
        if (kind == check::StepKind::NetworkDeliver) {
            _labels |= fabricLabel;
            return;
        }
        _labels |= stepLabel;
        std::uint64_t key = (std::uint64_t(at) << 48) | blockBase(addr);
        if (kind == check::StepKind::MasterIssue) {
            _issued[key] = _eq.now();
        } else if (kind == check::StepKind::MasterGrant) {
            auto it = _issued.find(key);
            if (it != _issued.end()) {
                missNs.push_back(double(_eq.now() - it->second));
                _issued.erase(it);
            }
        }
    }

    unsigned
    injectQueueCapacity(NodeId, unsigned base) override
    {
        _labels |= fabricLabel;
        return base;
    }

    unsigned
    xbCapacity(unsigned, unsigned, unsigned base) override
    {
        _labels |= fabricLabel;
        return base;
    }

    bool
    switchOutputHeld(unsigned, unsigned, unsigned) override
    {
        _labels |= fabricLabel;
        return false;
    }

    bool
    deliveryHeld(NodeId) override
    {
        _labels |= fabricLabel;
        return false;
    }

    void
    attach(DsmSystem &sys)
    {
        sys.eq().setObserver(this);
        for (NodeId n = 0; n < sys.numNodes(); ++n)
            sys.node(n).setCheckHook(this);
        sys.transport().setCheckHook(this);
        sys.transport().setFaultHook(this);
    }

    void
    detach(DsmSystem &sys)
    {
        sys.eq().setObserver(nullptr);
        for (NodeId n = 0; n < sys.numNodes(); ++n)
            sys.node(n).setCheckHook(nullptr);
        sys.transport().setCheckHook(nullptr);
        sys.transport().setFaultHook(nullptr);
    }

    double protocolS = 0.0;
    double fabricS = 0.0;
    double otherS = 0.0;
    std::vector<double> missNs;

  private:
    static constexpr unsigned stepLabel = 1;
    static constexpr unsigned fabricLabel = 2;

    const EventQueue &_eq;
    unsigned _labels = 0;
    Clock::time_point _t0;
    std::unordered_map<std::uint64_t, Tick> _issued;
};

/** Nearest-rank percentile of @p v (sorted in place). */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * double(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/** Named simulated numbers of one run, in a fixed order. */
using SimRecord = std::vector<std::pair<std::string, double>>;

/** Record fields that may legitimately differ with the shard count. */
bool
shardDependent(const std::string &name)
{
    return name == "sim.events" || name == "sim.events_per_access" ||
           name == "shard.effective";
}

double
statCounter(const StatGroup &g, const char *name)
{
    for (const auto &[k, c] : g.counters()) {
        if (k == name)
            return double(c.value());
    }
    return 0.0;
}

double
statMean(const StatGroup &g, const char *name)
{
    for (const auto &[k, s] : g.sampleStats()) {
        if (k == name)
            return s.mean();
    }
    return 0.0;
}

/** Every simulated number of a finished run. */
SimRecord
collectSim(Instance &inst, const RunStats &rs, std::uint64_t events)
{
    DsmSystem &sys = inst.sys();
    double hits = 0, misses = 0, miss_priv = 0, miss_local = 0,
           miss_remote = 0, writebacks = 0, reissues = 0, atomics = 0;
    double requests = 0, queued = 0, inval_mc = 0, inval_uc = 0,
           home_wb = 0, home_atomics = 0;
    double invalidations = 0, forwards = 0, overflows = 0, sent = 0,
           home_out_hw = 0;
    SampleStat load_miss, store_miss, queue_depth;
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
        DsmNode &node = sys.node(n);
        const MasterModule &m = node.master();
        hits += double(m.cacheHits.value());
        misses += double(m.cacheMisses.value());
        miss_priv += double(m.missPrivate.value());
        miss_local += double(m.missSharedLocal.value());
        miss_remote += double(m.missSharedRemote.value());
        writebacks += double(m.writebacks.value());
        reissues += double(m.ownershipReissues.value());
        atomics += double(m.atomicOps.value());
        load_miss.merge(m.loadMissLatency);
        store_miss.merge(m.storeMissLatency);
        const HomeModule &h = node.home();
        requests += double(h.requestsProcessed.value());
        queued += double(h.requestsQueued.value());
        inval_mc += double(h.invalidationMulticasts.value());
        inval_uc += double(h.invalidationUnicasts.value());
        home_wb += double(h.writebacksProcessed.value());
        home_atomics += double(h.atomicsProcessed.value());
        queue_depth.merge(h.queueWaitDepth);
        const SlaveModule &s = node.slave();
        invalidations += double(s.invalidationsReceived.value());
        forwards += double(s.forwardsReceived.value());
        overflows += double(s.memOverflowed.value());
        sent += double(node.sentCount());
        home_out_hw =
            std::max(home_out_hw, double(node.homeOutMemHighWater()));
    }

    Transport &t = sys.transport();
    const StatGroup &net = t.stats();
    double gather_blocked = 0;
    Transport::FabricShape shape = t.fabricShape();
    for (unsigned st = 0; st < shape.stages; ++st) {
        for (unsigned row = 0; row < shape.rows; ++row) {
            gather_blocked +=
                double(sys.network().switchAt(st, row).gatherBlockCount());
        }
    }
    double merged = statCounter(net, "combine_merged");
    double accesses = double(rs.memAccesses);
    double node_time = double(rs.execTime) * sys.numNodes();

    return {
        {"sim_time_us", double(rs.execTime) / 1000.0},
        {"amat_ns", ratio(double(rs.memTime), accesses - atomics)},
        {"sim.events", double(events)},
        {"sim.events_per_access", ratio(double(events), accesses)},
        {"core.accesses", accesses},
        {"core.mem_share", ratio(double(rs.memTime), node_time)},
        {"core.sync_share", ratio(double(rs.syncTime), node_time)},
        {"core.comm_share", ratio(double(rs.commTime), node_time)},
        {"core.compute_share",
         ratio(double(rs.computeTime), node_time)},
        {"master.hit_ratio", ratio(hits, hits + misses)},
        {"master.misses_private", miss_priv},
        {"master.misses_local", miss_local},
        {"master.misses_remote", miss_remote},
        {"master.writebacks", writebacks},
        {"master.ownership_reissues", reissues},
        {"master.load_miss_ns_mean", load_miss.mean()},
        {"master.store_miss_ns_mean", store_miss.mean()},
        {"home.requests", requests},
        {"home.queued", queued},
        {"home.queue_depth_mean", queue_depth.mean()},
        {"home.inval_multicasts", inval_mc},
        {"home.inval_unicasts", inval_uc},
        {"home.writebacks", home_wb},
        {"home.atomics", home_atomics},
        {"directory.copies_per_multicast",
         ratio(statCounter(net, "multicast_copies"), inval_mc)},
        {"slave.invalidations", invalidations},
        {"slave.forwards", forwards},
        {"slave.mem_overflows", overflows},
        {"node.messages_sent", sent},
        {"node.home_out_mem_high_water", home_out_hw},
        {"net.packets", double(t.injectedCount())},
        {"net.latency_ns_mean", statMean(net, "latency_ns")},
        {"net.multicast_copies", statCounter(net, "multicast_copies")},
        {"net.gather_absorbed", statCounter(net, "gather_absorbed")},
        {"net.gather_forwarded", statCounter(net, "gather_forwarded")},
        {"net.gather_blocked", gather_blocked},
        {"net.combine_merged", merged},
        {"net.combine_skipped", statCounter(net, "combine_skipped")},
        {"net.combine_merge_ratio", ratio(merged, atomics)},
        {"net.store_1023_sharers_ns", inst.wideStoreNs()},
        {"shard.effective", double(sys.effectiveShards())},
        {"checksum", inst.checksum()},
    };
}

double
lookup(const SimRecord &r, const char *name)
{
    for (const auto &[k, v] : r) {
        if (k == name)
            return v;
    }
    panic("perfbench: no simulated field %s", name);
}

/** One measured run of a workload. */
struct Rep
{
    double setupS = 0.0;
    double runS = 0.0;
    double accesses = 0.0;
    double events = 0.0;
    SimRecord sim;
    // traced runs only
    double protocolS = 0.0, fabricS = 0.0, otherS = 0.0;
    double missP50 = 0.0, missP99 = 0.0;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool wrongReference = false;
};

Rep
measure(const WorkloadSpec &w, const Scale &s, const Options &o,
        unsigned shards, bool traced, Checks &checks)
{
    Rep rep;
    auto t0 = Clock::now();
    std::unique_ptr<Instance> inst = makeInstance(w, s, o.seed, shards);
    rep.setupS = secondsSince(t0);

    DsmSystem &sys = inst->sys();
    std::unique_ptr<Tracer> tracer;
    if (traced) {
        tracer = std::make_unique<Tracer>(sys.eq());
        tracer->attach(sys);
    }
    std::uint64_t ev0 = eventsExecuted(sys);
    auto t1 = Clock::now();
    RunStats rs = inst->run();
    rep.runS = secondsSince(t1);
    std::uint64_t events = eventsExecuted(sys) - ev0;
    if (tracer) {
        tracer->detach(sys);
        rep.protocolS = tracer->protocolS;
        rep.fabricS = tracer->fabricS;
        rep.otherS = tracer->otherS;
        rep.missP50 = percentile(tracer->missNs, 0.50);
        rep.missP99 = percentile(tracer->missNs, 0.99);
    }
    rep.accesses = double(rs.memAccesses);
    rep.events = double(events);
    rep.sim = collectSim(*inst, rs, events);
    inst->check(checks, o.wrongReference);
    return rep;
}

/** Compare two runs' simulated numbers; a mismatch is a failure. */
void
expectSameSim(Checks &c, const Rep &a, const Rep &b, const char *what)
{
    bool skip_sharded = lookup(a.sim, "shard.effective") !=
                        lookup(b.sim, "shard.effective");
    bool same = a.sim.size() == b.sim.size();
    for (std::size_t i = 0; same && i < a.sim.size(); ++i) {
        if (skip_sharded && shardDependent(a.sim[i].first))
            continue;
        if (std::memcmp(&a.sim[i].second, &b.sim[i].second,
                        sizeof(double)) != 0) {
            std::printf("determinism: %s differs (%.17g vs %.17g)\n",
                        a.sim[i].first.c_str(), a.sim[i].second,
                        b.sim[i].second);
            same = false;
        }
    }
    c.expect(same, "simulated numbers differ between %s", what);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (BENCHMARK.json "end_to_end"). */
const MetricDef endToEnd[] = {
    {"accesses_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_time_us", "sim_us"},
    {"amat_ns", "sim_ns"},
};

/** Per-layer metrics (BENCHMARK.json "per_layer"). */
const MetricDef perLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_access", "ratio"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.kernel_host_s", "s"},
    {"core.accesses", "count"},
    {"core.mem_share", "share"},
    {"core.sync_share", "share"},
    {"core.comm_share", "share"},
    {"core.compute_share", "share"},
    {"host.other_s", "s"},
    {"master.hit_ratio", "share"},
    {"master.misses_private", "count"},
    {"master.misses_local", "count"},
    {"master.misses_remote", "count"},
    {"master.writebacks", "count"},
    {"master.ownership_reissues", "count"},
    {"master.load_miss_ns_mean", "sim_ns"},
    {"master.store_miss_ns_mean", "sim_ns"},
    {"master.shared_miss_ns_p50", "sim_ns"},
    {"master.shared_miss_ns_p99", "sim_ns"},
    {"home.requests", "count"},
    {"home.queued", "count"},
    {"home.queue_depth_mean", "count"},
    {"home.inval_multicasts", "count"},
    {"home.inval_unicasts", "count"},
    {"home.writebacks", "count"},
    {"home.atomics", "count"},
    {"directory.copies_per_multicast", "count"},
    {"host.protocol_step_s", "s"},
    {"slave.invalidations", "count"},
    {"slave.forwards", "count"},
    {"slave.mem_overflows", "count"},
    {"node.messages_sent", "count"},
    {"node.home_out_mem_high_water", "count"},
    {"net.packets", "count"},
    {"net.latency_ns_mean", "sim_ns"},
    {"net.multicast_copies", "count"},
    {"net.gather_absorbed", "count"},
    {"net.gather_forwarded", "count"},
    {"net.gather_blocked", "count"},
    {"net.combine_merged", "count"},
    {"net.combine_skipped", "count"},
    {"net.combine_merge_ratio", "share"},
    {"net.store_1023_sharers_ns", "sim_ns"},
    {"host.fabric_s", "s"},
    {"shard.effective", "count"},
    {"trace_overhead", "ratio"},
};

template <typename Fn>
std::vector<double>
each(const std::vector<Rep> &reps, Fn fn)
{
    std::vector<double> out;
    for (const Rep &r : reps)
        out.push_back(fn(r));
    return out;
}

void
printReference(const WorkloadSpec &w, const Rep &rep, unsigned nodes)
{
    if (w.kind != Kind::Storm) {
        std::printf("paper reference: none. The paper reports no "
                    "per-workload number for NPB %s %s on %u nodes "
                    "with these scaled problems.\n",
                    appKindName(w.app), variantName(w.variant), nodes);
        return;
    }
    double ns = lookup(rep.sim, "net.store_1023_sharers_ns");
    std::printf("paper reference: net.store_1023_sharers_ns "
                "(%u-way shared store) = %.0f sim_ns; model "
                "(EXPERIMENTS.md, Fig 10) %.0f ns, error %+.1f%%; "
                "paper ~%.0f ns, error %+.1f%%\n",
                nodes - 1, ns, fig10ModelNs,
                100.0 * (ns - fig10ModelNs) / fig10ModelNs,
                fig10PaperNs,
                100.0 * (ns - fig10PaperNs) / fig10PaperNs);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "dsm_bench: %s\nusage: dsm_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--wrong-reference]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--wrong-reference")
            o.wrongReference = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

int
benchMain(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    std::vector<WorkloadSpec> specs = workloads();
    auto it = std::find_if(specs.begin(), specs.end(),
                           [&](const WorkloadSpec &w) {
                               return o.workload == w.name;
                           });
    if (it == specs.end())
        usage(("unknown workload " + o.workload).c_str());
    const WorkloadSpec &w = *it;
    const Scale &s = o.smoke ? w.smoke : w.full;
    unsigned shards = o.trace ? 1 : w.shards;

    SystemConfig cfg = pinnedConfig(s.nodes, shards);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%s\n",
                w.name, (unsigned long long)o.seed, o.seconds,
                int(o.trace), o.smoke ? "smoke" : "full");
    std::printf("config transport=%s protocol=%s reliability=%s "
                "runtime_checks=%s cache_bytes=%u nodes=%u "
                "shards=%u\n",
                transportKindName(cfg.transport),
                protocolKindName(cfg.proto.protocol),
                reliabilityKindName(cfg.reliability),
                cfg.proto.runtimeChecks ? "on" : "off",
                cfg.proto.cacheBytes, cfg.numNodes, cfg.shards);
    if (w.kind == Kind::Storm) {
        std::printf("problem sync storm rounds=%u fetch_adds_per_node="
                    "%u (seeded); caches start empty\n",
                    s.rounds, s.opsPerNode);
    } else {
        std::string size =
            w.app == AppKind::CG
                ? "cg_rows=" + std::to_string(s.npb.cgRows)
                : "grid=" + std::to_string(s.npb.grid);
        std::printf("problem NPB %s %s %s iterations=%u (fixed, seed "
                    "unused); caches start empty\n",
                    appKindName(w.app), variantName(w.variant),
                    size.c_str(), s.npb.iterations);
    }
    std::fflush(stdout);

    Checks checks;
    std::vector<Rep> reps;   // untraced
    std::vector<Rep> traced; // --trace 1 only
    std::vector<double> raw_setups;
    double peak_rss = 0.0;
    if (!o.trace) {
        // One untimed warm-up run first: a process's first run pays
        // for growing the heap and is slower than the rest. Then set
        // up alone for a twentieth of the run (at least five times).
        Checks warmup_checks;
        measure(w, s, o, shards, false, warmup_checks);
        // Read here, before the calibration probe adds its table.
        peak_rss = peakRssMb();
        auto t0 = Clock::now();
        while (raw_setups.size() < 5 ||
               (secondsSince(t0) < 0.05 * o.seconds &&
                raw_setups.size() < 200)) {
            auto t1 = Clock::now();
            std::unique_ptr<Instance> inst =
                makeInstance(w, s, o.seed, shards);
            raw_setups.push_back(secondsSince(t1));
        }
    }
    // Measured runs, each on a freshly built system, until the next
    // one would end after --seconds (at least minReps of them). The
    // calibration probe runs before the first and after every run;
    // each set-up is calibrated by the probe just before it.
    constexpr std::size_t minReps = 3;
    auto start = Clock::now();
    std::vector<double> probes;
    std::vector<double> setups;
    if (!o.trace) {
        probes.push_back(probeSeconds());
        for (double t : raw_setups)
            setups.push_back(t * probeReferenceS / probes[0]);
    }
    double last_rep_s = 0.0;
    do {
        auto rep_start = Clock::now();
        reps.push_back(measure(w, s, o, shards, false, checks));
        const Rep &r = reps.back();
        raw_setups.push_back(r.setupS);
        if (!o.trace)
            setups.push_back(r.setupS * probeReferenceS / probes.back());
        std::printf("run %zu: setup %.4f s, run %.4f s, %.0f "
                    "accesses, %.0f events",
                    reps.size(), r.setupS, r.runS, r.accesses,
                    r.events);
        if (!o.trace) {
            probes.push_back(probeSeconds());
            std::printf(", probe after %.4f s", probes.back());
        }
        std::printf("\n");
        if (o.trace) {
            traced.push_back(measure(w, s, o, 1, true, checks));
            const Rep &t = traced.back();
            std::printf("traced run %zu: run %.4f s (protocol %.4f, "
                        "fabric %.4f, other %.4f s in callbacks)\n",
                        traced.size(), t.runS, t.protocolS, t.fabricS,
                        t.otherS);
        }
        std::fflush(stdout);
        last_rep_s = secondsSince(rep_start);
    } while (secondsSince(start) + last_rep_s <= o.seconds ||
             (!o.trace && reps.size() < minReps));

    // Determinism guard.
    for (std::size_t i = 1; i < reps.size(); ++i)
        expectSameSim(checks, reps[0], reps[i], "repeated runs");
    for (const Rep &t : traced) {
        expectSameSim(checks, reps[0], t, "traced and untraced runs");
        checks.expect(t.missP50 == traced[0].missP50 &&
                          t.missP99 == traced[0].missP99,
                      "shared-miss percentiles differ between traced "
                      "runs");
    }

    if (w.kind == Kind::Npb) {
        double dsm = lookup(reps[0].sim, "checksum");
        std::printf("checksum %.17g (committed reference %.17g)\n", dsm,
                    s.reference);
        if (w.matchesSeq) {
            // The parallel sum adds per-node partial sums in tree
            // order, so allow rounding in the last few bits.
            double seq = seqChecksum(w, s);
            std::printf("sequential program checksum %.17g\n", seq);
            checks.expect(std::fabs(dsm - seq) <= 1e-12 * std::fabs(seq),
                          "checksum %.17g differs from the sequential "
                          "program's %.17g",
                          dsm, seq);
        }
    }
    printReference(w, reps[0], s.nodes);

    std::map<std::string, double> v(reps[0].sim.begin(),
                                    reps[0].sim.end());
    // Rates divide totals over all runs, which smooths the host's
    // speed switches better than a per-run median. The end-to-end
    // host times are calibrated (probeSeconds): each run's time by
    // the probes on either side of it, each set-up by the probe
    // before it.
    double run_s = 0.0, calibrated_s = 0.0, accesses = 0.0,
           events = 0.0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        run_s += reps[i].runS;
        accesses += reps[i].accesses;
        events += reps[i].events;
        if (!o.trace) {
            calibrated_s += reps[i].runS * probeReferenceS /
                            (0.5 * (probes[i] + probes[i + 1]));
        }
    }
    v["sim.host_ns_per_event"] = 1e9 * run_s / events;
    if (!o.trace) {
        v["accesses_per_s"] = accesses / calibrated_s;
        v["setup_s"] = median(setups);
        v["peak_rss_mb"] = peak_rss;
        std::vector<double> sorted = raw_setups;
        std::sort(sorted.begin(), sorted.end());
        std::printf("set-ups: %zu, min %.6f s, quartiles %.6f %.6f "
                    "%.6f s, max %.6f s (uncalibrated)\n",
                    sorted.size(), sorted.front(),
                    sorted[sorted.size() / 4], median(sorted),
                    sorted[sorted.size() * 3 / 4], sorted.back());
        std::printf("host calibration: probe median %.4f s (reference "
                    "%.3f s); uncalibrated accesses_per_s %.6g, setup_s "
                    "%.6g\n",
                    median(probes), probeReferenceS, accesses / run_s,
                    median(raw_setups));
    }
    if (o.trace) {
        v["sim.kernel_host_s"] = median(each(traced, [](const Rep &r) {
            return r.runS - r.protocolS - r.fabricS - r.otherS;
        }));
        v["host.other_s"] =
            median(each(traced, [](const Rep &r) { return r.otherS; }));
        v["host.protocol_step_s"] = median(
            each(traced, [](const Rep &r) { return r.protocolS; }));
        v["host.fabric_s"] =
            median(each(traced, [](const Rep &r) { return r.fabricS; }));
        v["master.shared_miss_ns_p50"] = traced[0].missP50;
        v["master.shared_miss_ns_p99"] = traced[0].missP99;
        v["trace_overhead"] =
            median(each(traced, [](const Rep &r) { return r.runS; })) /
            median(each(reps, [](const Rep &r) { return r.runS; }));
    }

    const MetricDef *defs = o.trace ? perLayer : endToEnd;
    std::size_t ndefs = o.trace ? std::size(perLayer) : std::size(endToEnd);
    for (std::size_t i = 0; i < ndefs; ++i) {
        double x = v.at(defs[i].name);
        checks.expect(std::isfinite(x), "metric %s is not finite",
                      defs[i].name);
        std::printf("metric %-32s %.6g %s\n", defs[i].name, x,
                    defs[i].unit);
    }
    std::printf("metric %-32s %.6g share (%llu of %llu checks failed)\n",
                "failed_ops",
                ratio(double(checks.failed()), double(checks.attempted())),
                (unsigned long long)checks.failed(),
                (unsigned long long)checks.attempted());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed() ? "false" : "true",
                (unsigned long long)checks.attempted(),
                (unsigned long long)checks.failed());
    for (std::size_t i = 0; i < ndefs; ++i) {
        double x = v.at(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name,
                    std::isfinite(x) ? x : 0.0, defs[i].unit);
    }
    std::printf("}}\n");
    return checks.failed() ? 1 : 0;
}

} // namespace
} // namespace cenju::perfbench

int
main(int argc, char **argv)
{
    return cenju::perfbench::benchMain(argc, argv);
}
