/**
 * @file
 * Simulation-kernel microbenchmarks: raw event-scheduling
 * throughput (timed, same-tick and deep-heap), network packet
 * forwarding, multicast destination decode, directory bit-pattern
 * and map encoding, and coherence-packet allocation churn.
 *
 * This is the tracked perf surface of the simulator (docs/PERF.md):
 * the numbers land in BENCH_kernel.json and CI's perf-smoke job
 * fails when a metric regresses more than --max-regress against the
 * committed baseline. Usage:
 *
 *   kernel_bench                         # full run, table to stdout
 *   kernel_bench --quick                 # CI-sized work items
 *   kernel_bench --out BENCH_kernel.json # also write the JSON
 *   kernel_bench --baseline BENCH_kernel.json --max-regress 0.20
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dsm_system.hh"
#include "directory/bit_pattern.hh"
#include "directory/cenju_node_map.hh"
#include "fault/injector.hh"
#include "fault/stress.hh"
#include "memory/address_map.hh"
#include "network/network.hh"
#include "protocol/coh_msg.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

using clk = std::chrono::steady_clock;

struct Result
{
    std::string name;
    std::string metric;
    double value = 0; ///< higher is better (ops per second)
    std::uint64_t ops = 0;
    double seconds = 0;
};

double
secondsSince(clk::time_point t0)
{
    return std::chrono::duration<double>(clk::now() - t0).count();
}

/** One row of the bench table: the bench and its parameters. */
struct Bench
{
    const char *name;
    Result (*fn)(const Bench &);
    std::uint64_t work; ///< events, items, budget or ops per node
    bool quickSkip = false;
    // Parameters of the whole-system rows (stress, hotspot, reliable).
    unsigned nodes = 0;
    unsigned shards = 1;
    TransportKind transport = TransportKind::Multistage;
    ReliabilityKind reliability = ReliabilityKind::Off;
    unsigned dropPeriod = 0; ///< drop every n-th arrival; 0 = none
};

/**
 * Scheduling throughput with a shallow queue: a ring of
 * self-rescheduling events whose closures carry a typical
 * simulator-sized capture (a this-pointer plus a few words). The
 * old kernel paid one heap allocation per schedule for captures
 * past std::function's tiny inline buffer.
 */
Result
benchSchedRing(const Bench &b)
{
    EventQueue eq;
    std::uint64_t remaining = b.work;
    std::uint64_t acc = 0;
    constexpr unsigned ring = 16;

    // Self-rescheduling closure; captures ~40 bytes.
    struct Step
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint64_t *acc;
        std::uint64_t salt;
        unsigned lane;

        void
        operator()() const
        {
            *acc += salt + lane;
            if (*remaining == 0)
                return;
            --*remaining;
            Step next = *this;
            next.salt = *acc;
            eq->scheduleAfter(1 + (lane & 3), next);
        }
    };

    auto t0 = clk::now();
    for (unsigned l = 0; l < ring; ++l)
        eq.schedule(0, Step{&eq, &remaining, &acc, l, l});
    eq.run();
    double s = secondsSince(t0);

    if (acc == 0)
        std::fprintf(stderr, "impossible\n"); // keep acc observable
    std::uint64_t ran = eq.executed();
    return {b.name, "events_per_sec", double(ran) / s, ran, s};
}

/**
 * Same-tick scheduling, the switch's enqueue -> arbitrate shape: a
 * ring of timed events, each of which schedules one zero-delay
 * follower (its arbitration) and one timed successor (the next
 * hop), so half of all events run at the tick they were scheduled.
 */
Result
benchSchedSameTick(const Bench &b)
{
    EventQueue eq;
    std::uint64_t remaining = b.work;
    std::uint64_t acc = 0;
    constexpr unsigned ring = 16;

    struct Step
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint64_t *acc;
        std::uint64_t salt;
        unsigned lane;

        void
        operator()() const
        {
            *acc += salt + lane;
            if (*remaining == 0)
                return;
            --*remaining;
            eq->scheduleAfter(0, [acc = acc, lane = lane] {
                *acc ^= lane;
            });
            Step next = *this;
            next.salt = *acc;
            eq->scheduleAfter(1 + (lane & 3), next);
        }
    };

    auto t0 = clk::now();
    for (unsigned l = 0; l < ring; ++l)
        eq.schedule(0, Step{&eq, &remaining, &acc, l, l});
    eq.run();
    double s = secondsSince(t0);

    if (acc == 0)
        std::fprintf(stderr, "impossible\n"); // keep acc observable
    std::uint64_t ran = eq.executed();
    return {b.name, "events_per_sec", double(ran) / s, ran, s};
}

/** Scheduling throughput against a deep pending-event heap. */
Result
benchSchedDeep(const Bench &b)
{
    EventQueue eq;
    std::uint64_t remaining = b.work;
    std::uint64_t acc = 0;
    constexpr unsigned depth = 1u << 15;

    struct Step
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint64_t *acc;
        std::uint64_t salt;

        void
        operator()() const
        {
            *acc += salt;
            if (*remaining == 0)
                return;
            --*remaining;
            // Spread re-insertions over a wide window so heap
            // operations exercise full-depth sift paths.
            eq->scheduleAfter(1 + (*acc % 4096), *this);
        }
    };

    auto t0 = clk::now();
    for (unsigned i = 0; i < depth; ++i)
        eq.schedule(i % 97, Step{&eq, &remaining, &acc, i});
    eq.run();
    double s = secondsSince(t0);
    std::uint64_t ran = eq.executed();
    return {b.name, "events_per_sec", double(ran) / s, ran, s};
}

/** Endpoint that counts deliveries and immediately re-injects. */
class EchoEndpoint : public Endpoint
{
  public:
    EchoEndpoint(Network &net, NodeId id, std::uint64_t *budget)
        : _net(net), _id(id), _budget(budget)
    {
        net.attach(id, this);
    }

    bool reserveDelivery(const Packet &) override { return true; }

    void
    deliver(PacketPtr pkt) override
    {
        if (*_budget == 0)
            return;
        --*_budget;
        // Bounce to the next node so traffic keeps crossing the
        // network with a new route every hop.
        NodeId dst = (pkt->dest.unicastDest() + 1) %
                     _net.numNodes();
        pkt->src = _id;
        pkt->dest = DestSpec::unicast(dst);
        pkt->gathered = false;
        (void)_net.tryInject(std::move(pkt));
    }

  private:
    Network &_net;
    NodeId _id;
    std::uint64_t *_budget;
};

/** Minimal cloneable packet for the forwarding bench. */
struct BenchPacket : Packet
{
    std::unique_ptr<Packet>
    clone() const override
    {
        return std::make_unique<BenchPacket>(*this);
    }
};

/**
 * Packet forwarding throughput: 64 nodes, every node bouncing a
 * unicast around the ring through the full switch fabric. Measures
 * packets delivered per second end to end (injection queues,
 * crosspoint buffers, per-hop callbacks).
 */
Result
benchPackets(const Bench &b)
{
    EventQueue eq;
    NetConfig cfg;
    cfg.numNodes = 64;
    Network net(eq, cfg);
    std::uint64_t budget = b.work;
    std::vector<std::unique_ptr<EchoEndpoint>> eps;
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        eps.push_back(
            std::make_unique<EchoEndpoint>(net, n, &budget));
    }

    auto t0 = clk::now();
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        auto p = std::make_unique<BenchPacket>();
        p->src = n;
        p->dest = DestSpec::unicast((n + 17) % cfg.numNodes);
        (void)net.tryInject(std::move(p));
    }
    eq.run();
    double s = secondsSince(t0);
    std::uint64_t delivered = net.deliveredCount();
    return {b.name, "packets_per_sec", double(delivered) / s,
            delivered, s};
}

/**
 * Multicast destination decode throughput: bit-pattern DestSpecs
 * over a 1024-node address space, the operation every switch on a
 * multicast tree needs (once per message with the cache).
 */
Result
benchMulticastDecode(const Bench &b)
{
    const std::uint64_t total = b.work;
    constexpr unsigned nodes = 1024;
    Rng rng(12345);
    // A spread of sharer-set shapes, built once.
    std::vector<DestSpec> specs;
    for (unsigned k : {2u, 5u, 16u, 64u, 256u, 1024u}) {
        BitPattern p;
        for (unsigned i = 0; i < k; ++i)
            p.add(NodeId(rng.below(nodes)));
        specs.push_back(DestSpec::pattern(p));
    }

    std::uint64_t members = 0;
    auto t0 = clk::now();
    for (std::uint64_t i = 0; i < total; ++i) {
        const DestSpec &d = specs[i % specs.size()];
        members += d.decode(nodes).count();
    }
    double s = secondsSince(t0);
    if (members == 0)
        std::fprintf(stderr, "impossible\n");
    return {b.name, "decodes_per_sec", double(total) / s, total, s};
}

/**
 * Bit-pattern insert throughput: the per-sharer operation a
 * directory entry in coarse (bit-pattern) mode performs on every
 * read miss.
 */
Result
benchBitPatternAdd(const Bench &b)
{
    const std::uint64_t total = b.work;
    Rng rng(1);
    std::vector<NodeId> ids(1024);
    for (NodeId &v : ids)
        v = NodeId(rng.below(maxNodes));
    std::uint64_t packed = 0;
    BitPattern p;
    auto t0 = clk::now();
    for (std::uint64_t i = 0; i < total; ++i) {
        // Restart every 1024 adds so the pattern never saturates.
        if ((i & 1023) == 0) {
            packed += p.pack();
            p.clear();
        }
        p.add(ids[i & 1023]);
    }
    double s = secondsSince(t0);
    if (packed + p.pack() == 0)
        std::fprintf(stderr, "impossible\n");
    return {b.name, "adds_per_sec", double(total) / s, total, s};
}

/**
 * Directory-entry encode/decode throughput: CenjuNodeMap pack and
 * unpack round trips over 2-, 8- and 64-sharer maps (pointer form
 * and both bit-pattern shapes), as the directory does on every
 * entry access.
 */
Result
benchMapPackUnpack(const Bench &b)
{
    const std::uint64_t total = b.work;
    Rng rng(3);
    std::vector<CenjuNodeMap> maps;
    for (std::uint32_t k : {2u, 8u, 64u}) {
        CenjuNodeMap m;
        for (NodeId v : rng.sampleDistinct(k, maxNodes))
            m.add(v);
        maps.push_back(m);
    }

    std::uint64_t members = 0;
    auto t0 = clk::now();
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t raw = maps[i % maps.size()].pack();
        members += CenjuNodeMap::unpackMap(raw).representedCount(
            maxNodes);
    }
    double s = secondsSince(t0);
    if (members == 0)
        std::fprintf(stderr, "impossible\n");
    return {b.name, "roundtrips_per_sec", double(total) / s, total,
            s};
}

/**
 * Coherence-packet allocation churn: the allocate/free pattern of
 * the forwarding and clone paths, batched the way multicast
 * replication batches it.
 */
Result
benchPacketAlloc(const Bench &b)
{
    std::vector<std::unique_ptr<CohPacket>> live;
    live.reserve(64);
    std::uint64_t made = 0;
    auto t0 = clk::now();
    while (made < b.work) {
        for (unsigned i = 0; i < 64; ++i, ++made) {
            auto p = std::make_unique<CohPacket>();
            p->type = CohMsgType::Invalidate;
            p->addr = made * blockBytes;
            live.push_back(std::move(p));
        }
        live.clear();
    }
    double s = secondsSince(t0);
    return {b.name, "packets_per_sec", double(made) / s, made, s};
}

/**
 * Whole-system stress throughput at 1024 nodes: one fixed seed on
 * the ideal backend, run to the event budget. The seq/sh8 pair
 * tracks the sharded engine's scaling (src/shard). Two effects
 * compound: parallelism across hardware threads, and the
 * single-thread wins inherent to sharding — eight shallow pending-
 * event heaps instead of one 1024-node heap, and quiescent-only
 * instead of per-step invariant checking (the documented sharded-
 * run divergence) — so the ratio exceeds 1 even on a single-core
 * host. Skipped under --quick — CI's perf-smoke job compares only
 * names present in both runs, so the committed full-run numbers
 * don't gate the quick run.
 */
Result
benchStress(const Bench &b)
{
    fault::StressOptions opts;
    opts.nodes = b.nodes;
    opts.transport = b.transport;
    fault::StressCase c = fault::makeStressCase(1, opts);
    auto t0 = clk::now();
    fault::StressResult r = fault::runStressCase(c, b.work, b.shards);
    double s = secondsSince(t0);
    if (r.digest == 0)
        std::fprintf(stderr, "impossible\n"); // keep run observable
    return {b.name, "events_per_sec", double(r.events) / s, r.events,
            s};
}

/**
 * Hot-spot barrier-storm: every node hammers one combinable word
 * with fetch-adds (the barrier-counter access pattern), then joins
 * a closing barrier. The metric is atomics per simulated
 * millisecond — derived from RunStats::execTime, so the value is
 * bit-deterministic across hosts and the perf-smoke regression gate
 * compares it exactly, unlike the wall-clock benches.
 *
 * The multistage/direct pairs at 256 and 1024 nodes are the
 * committed combining curve (docs/PERF.md): in-network combining
 * merges same-address requests at the switches, so completion time
 * scales with network *stages*; direct degrades to the sender-side
 * software-tree baseline, which pays per-hop injector occupancy and
 * a serializing receive port at every tree level.
 */
Result
benchHotspot(const Bench &b)
{
    SystemConfig cfg;
    cfg.numNodes = b.nodes;
    cfg.transport = b.transport;
    cfg.proto.runtimeChecks = false;
    auto t0 = clk::now();
    DsmSystem sys(cfg);
    ShmArray ctr = sys.shmAllocCombinable(1);
    Addr a = ctr.addrOf(0);
    RunStats rs = sys.run([&](Env &env) -> Task {
        for (std::uint64_t i = 0; i < b.work; ++i)
            (void)co_await env.atomicFetchAdd(a, 1);
        co_await env.barrier();
    });
    double s = secondsSince(t0);
    if (std::getenv("CENJU_BENCH_DEBUG") &&
        b.transport == TransportKind::Multistage)
        std::fprintf(stderr,
                     "%s: merged=%llu skipped=%llu ticks=%llu\n",
                     b.name,
                     (unsigned long long)sys.network()
                         .combineMerged.value(),
                     (unsigned long long)sys.network()
                         .combineSkipped.value(),
                     (unsigned long long)rs.execTime);
    const std::uint64_t total = b.nodes * b.work;
    const std::uint64_t final =
        sys.node(addr_map::homeNode(a))
            .sharedMem()
            .readWord(addr_map::offset(a));
    if (final != total || rs.execTime == 0)
        std::fprintf(stderr,
                     "hotspot %s: bad sum %llu != %llu\n", b.name,
                     (unsigned long long)final,
                     (unsigned long long)total);
    return {b.name, "atomics_per_sim_ms",
            double(total) * 1e6 / double(rs.execTime), total, s};
}

/**
 * Queuing-protocol hot path: 256 masters hammer one home block
 * with stores, so every request after the first takes the
 * conflict path — park in the home's main-memory FIFO, serve in
 * order on reply completion (HomeModule::park and afterReply). The
 * metric is stores per *simulated* millisecond, bit-deterministic
 * across hosts, so the perf-smoke gate catches any extra hop or
 * re-park a change to the conflict path might introduce exactly.
 * The protocol is pinned (not CENJU_PROTOCOL) for the same reason
 * the stress goldens pin it.
 */
Result
benchCohQueuing256(const Bench &b)
{
    SystemConfig cfg;
    cfg.numNodes = 256;
    cfg.proto.protocol = ProtocolKind::Queuing;
    cfg.proto.runtimeChecks = false;
    auto t0 = clk::now();
    DsmSystem sys(cfg);
    Addr a = addr_map::makeShared(0, 0);
    std::uint64_t done = 0;
    std::function<void(NodeId, std::uint64_t)> kick =
        [&](NodeId n, std::uint64_t remaining) {
            if (remaining == 0)
                return;
            sys.node(n).master().store(a, n, [&, n, remaining] {
                ++done;
                kick(n, remaining - 1);
            });
        };
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        kick(n, b.work);
    sys.eq().run();
    double s = secondsSince(t0);
    const std::uint64_t total = cfg.numNodes * b.work;
    if (done != total || sys.eq().now() == 0 ||
        sys.node(0).home().nacksSent.value() != 0)
        std::fprintf(stderr,
                     "%s: bad run (%llu/%llu done, %llu nacks)\n",
                     b.name,
                     (unsigned long long)done,
                     (unsigned long long)total,
                     (unsigned long long)sys.node(0)
                         .home()
                         .nacksSent.value());
    return {b.name, "stores_per_sim_ms",
            double(total) * 1e6 / double(sys.eq().now()), total,
            s};
}

/**
 * Reliability-decorator cost (src/reliable/, docs/ARCHITECTURE.md
 * "Reliability layer"): 64 nodes, each streaming stores to private
 * blocks homed on its ring neighbor through a deliberately small
 * cache, so every store's line misses or writes back — a steady
 * unicast request/reply/writeback load with no multicast or gather
 * (the decorator's wire normalization is a no-op, isolating the
 * pure bookkeeping cost). The reliable_off/reliable_e2e pair is the
 * clean-path overhead gate: acks ride out of band and sequencing
 * adds no simulated latency, so e2e must stay within 5% of off
 * (checked in-bench, below). The reliable_goodput_p{16,4,3} points
 * are the goodput-vs-loss-rate curve: the same workload with every
 * 16th/4th/3rd arrival dropped (~6%/25%/33% loss), surviving on
 * retransmit + backoff. The drop counters are deterministic, so an
 * even period can parity-lock a retransmitted window head onto the
 * drop phase forever (rightly ending in a dead link) — the curve
 * uses an odd top-end period to measure recovery, not aliasing. All metrics are simulated-time-derived
 * (RunStats::execTime — the last node's finish, not the queue
 * clock, which trailing retransmit timers would pad), so quick and
 * full runs gate exactly.
 */
Result
benchReliableStores(const Bench &b)
{
    SystemConfig cfg;
    cfg.numNodes = 64;
    cfg.reliability = b.reliability;
    cfg.proto.runtimeChecks = false;
    cfg.proto.cacheBytes = 4096; // 32 lines: force wire traffic
    auto t0 = clk::now();
    DsmSystem sys(cfg);
    fault::FaultInjector injector(sys);
    if (b.dropPeriod != 0) {
        fault::FaultPlan plan;
        for (unsigned n = 0; n < cfg.numNodes; ++n) {
            fault::FaultEvent e;
            e.kind = fault::FaultKind::DropMsg;
            e.start = 0;
            e.duration = Tick(1) << 40;
            e.node = n;
            e.amount = b.dropPeriod;
            plan.events.push_back(e);
        }
        injector.arm(plan);
    }
    constexpr unsigned blocksPerNode = 64; // > cache lines: evicts
    RunStats rs = sys.run([&](Env &env) -> Task {
        NodeId home = NodeId((env.id() + 1) % cfg.numNodes);
        for (std::uint64_t i = 0; i < b.work; ++i) {
            Addr a = addr_map::makeShared(
                home, Addr(i % blocksPerNode) * blockBytes);
            co_await env.store(a, i + 1);
        }
    });
    double s = secondsSince(t0);
    const std::uint64_t total = cfg.numNodes * b.work;
    if (rs.execTime == 0)
        std::fprintf(stderr, "impossible\n");
    return {b.name, "stores_per_sim_ms",
            double(total) * 1e6 / double(rs.execTime), total, s};
}

// --- JSON output and baseline comparison --------------------------

void
writeJson(const std::string &path, const std::vector<Result> &rs,
          bool quick)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"cenju-kernel-bench-1\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"metric\": \"%s\", "
                      "\"value\": %.6g, \"ops\": %llu, "
                      "\"seconds\": %.4f}%s\n",
                      rs[i].name.c_str(), rs[i].metric.c_str(),
                      rs[i].value,
                      (unsigned long long)rs[i].ops,
                      rs[i].seconds,
                      i + 1 < rs.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
}

/**
 * Pull {"name": ..., "value": ...} pairs out of a baseline JSON.
 * Tolerant scanner for exactly the format writeJson emits (and for
 * hand-edited baselines that keep those two keys on one line).
 */
std::vector<std::pair<std::string, double>>
readBaseline(const std::string &path)
{
    std::vector<std::pair<std::string, double>> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        auto npos = line.find("\"name\"");
        auto vpos = line.find("\"value\"");
        if (npos == std::string::npos ||
            vpos == std::string::npos)
            continue;
        auto q0 = line.find('"', npos + 6 + 1);
        if (q0 == std::string::npos)
            continue;
        q0 = line.find('"', line.find(':', npos));
        auto q1 = line.find('"', q0 + 1);
        if (q0 == std::string::npos || q1 == std::string::npos)
            continue;
        std::string name = line.substr(q0 + 1, q1 - q0 - 1);
        double value =
            std::strtod(line.c_str() + line.find(':', vpos) + 1,
                        nullptr);
        out.emplace_back(name, value);
    }
    return out;
}

/**
 * Append the derived row @p name = @p num / @p den (by value) and
 * print it, if both rows ran and @p den's value is positive.
 * @return the new row, or nullptr if it could not be derived
 */
const Result *
addRatio(std::vector<Result> &rs, const char *name,
         const char *metric, const char *num, const char *den)
{
    auto find = [&rs](const char *row) -> const Result * {
        for (const Result &r : rs) {
            if (r.name == row)
                return &r;
        }
        return nullptr;
    };
    const Result *n = find(num), *d = find(den);
    if (!n || !d || d->value <= 0)
        return nullptr;
    rs.push_back({name, metric, n->value / d->value, 0, 0});
    const Result &r = rs.back();
    std::printf("%-18s %16s %14.2f %10s\n", r.name.c_str(),
                r.metric.c_str(), r.value, "-");
    return &r;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --quick           CI-sized work items\n"
        "  --out FILE        write results as JSON\n"
        "  --baseline FILE   compare against a committed JSON\n"
        "  --max-regress R   allowed fractional drop (default "
        "0.20)\n"
        "  --filter NAME     run only the named bench\n",
        argv0);
    return 2;
}

} // namespace
} // namespace cenju

int
main(int argc, char **argv)
{
    using namespace cenju;

    bool quick = false;
    std::string outFile, baselineFile, filter;
    double maxRegress = 0.20;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--quick")
            quick = true;
        else if (a == "--out")
            outFile = next();
        else if (a == "--baseline")
            baselineFile = next();
        else if (a == "--max-regress")
            maxRegress = std::strtod(next(), nullptr);
        else if (a == "--filter")
            filter = next();
        else
            return usage(argv[0]);
    }

    const std::uint64_t scale = quick ? 1 : 8;
    const Bench benches[] = {
        {"sched_ring", benchSchedRing, 1000000 * scale},
        {"sched_deep", benchSchedDeep, 500000 * scale},
        {"sched_same_tick", benchSchedSameTick, 500000 * scale},
        {"packets", benchPackets, 100000 * scale},
        {"multicast_decode", benchMulticastDecode,
         500000 * scale},
        {"bitpattern_add", benchBitPatternAdd, 20000000 * scale},
        {"map_pack_unpack", benchMapPackUnpack, 5000000 * scale},
        {"packet_alloc", benchPacketAlloc, 1000000 * scale},
        {.name = "stress_1024_seq", .fn = benchStress, .work = 2000000,
         .quickSkip = true, .nodes = 1024,
         .transport = TransportKind::Ideal},
        {.name = "stress_1024_sh8", .fn = benchStress, .work = 2000000,
         .quickSkip = true, .nodes = 1024, .shards = 8,
         .transport = TransportKind::Ideal},
        // Hot-spot work items are NOT scaled: the metric is
        // simulated-time-derived, so quick and full runs produce
        // the same value and the quick run can gate exactly.
        {.name = "hotspot_256_multistage", .fn = benchHotspot,
         .work = 16, .nodes = 256},
        {.name = "hotspot_256_direct", .fn = benchHotspot, .work = 16,
         .nodes = 256, .transport = TransportKind::Direct},
        {.name = "hotspot_1024_multistage", .fn = benchHotspot,
         .work = 8, .quickSkip = true, .nodes = 1024},
        {.name = "hotspot_1024_direct", .fn = benchHotspot, .work = 8,
         .quickSkip = true, .nodes = 1024,
         .transport = TransportKind::Direct},
        // Simulated-time metric like the hot-spot pair: quick and
        // full runs produce the same value, so the quick CI gate
        // checks the queuing conflict path exactly.
        {"coh_queuing_256", benchCohQueuing256, 8},
        // Reliability decorator: clean-path overhead pair plus the
        // goodput-vs-loss-rate curve. Simulated-time metrics, so
        // the quick run gates them exactly too.
        {.name = "reliable_off", .fn = benchReliableStores, .work = 96},
        {.name = "reliable_e2e", .fn = benchReliableStores, .work = 96,
         .reliability = ReliabilityKind::E2e},
        {.name = "reliable_goodput_p16", .fn = benchReliableStores,
         .work = 96, .reliability = ReliabilityKind::E2e,
         .dropPeriod = 16},
        {.name = "reliable_goodput_p4", .fn = benchReliableStores,
         .work = 96, .reliability = ReliabilityKind::E2e,
         .dropPeriod = 4},
        {.name = "reliable_goodput_p3", .fn = benchReliableStores,
         .work = 96, .reliability = ReliabilityKind::E2e,
         .dropPeriod = 3},
    };

    std::vector<Result> results;
    std::printf("%-18s %16s %14s %10s\n", "bench", "metric",
                "ops/sec", "seconds");
    for (const Bench &b : benches) {
        if (!filter.empty() && filter != b.name)
            continue;
        if (b.quickSkip && quick)
            continue;
        Result r = b.fn(b);
        std::printf("%-18s %16s %14.0f %10.3f\n", r.name.c_str(),
                    r.metric.c_str(), r.value, r.seconds);
        results.push_back(std::move(r));
    }

    // Derived rows, each only when both of its inputs ran. Shard
    // scaling: 8-shard over sequential events/sec at 1024 nodes.
    // Both runs execute the same events, so this is the wall-time
    // speedup (bounded by the host's hardware threads; 1.0 means no
    // parallel win).
    addRatio(results, "stress_1024_speedup", "x_seq",
             "stress_1024_sh8", "stress_1024_seq");
    // Combining: simulated hot-spot throughput of in-network
    // combining over the direct software-tree baseline (> 1 means
    // combining wins; both inputs are deterministic, so this ratio
    // is too).
    addRatio(results, "hotspot_256_combining_speedup", "x_direct",
             "hotspot_256_multistage", "hotspot_256_direct");
    addRatio(results, "hotspot_1024_combining_speedup", "x_direct",
             "hotspot_1024_multistage", "hotspot_1024_direct");
    // Reliability, gated in-bench: clean-path throughput of the
    // decorator over the bare backend. Both inputs are
    // simulated-time metrics on an identical workload, so the ratio
    // is deterministic; the decorator's contract is that
    // exactly-once bookkeeping costs nothing on a clean wire (acks
    // are out of band), with 5% headroom.
    const Result *clean =
        addRatio(results, "reliable_e2e_clean_ratio", "x_off",
                 "reliable_e2e", "reliable_off");
    bool overheadBad = clean && clean->value < 0.95;
    if (overheadBad)
        std::printf("REGRESSION reliable_e2e: clean-path throughput "
                    "%.3fx of reliable_off (floor 0.95)\n",
                    clean->value);

    if (!outFile.empty())
        writeJson(outFile, results, quick);

    if (!baselineFile.empty()) {
        auto base = readBaseline(baselineFile);
        if (base.empty()) {
            std::fprintf(stderr,
                         "no baseline entries in %s\n",
                         baselineFile.c_str());
            return 2;
        }
        bool bad = false;
        for (const auto &[name, value] : base) {
            for (const Result &r : results) {
                if (r.name != name)
                    continue;
                double floor = value * (1.0 - maxRegress);
                if (r.value < floor) {
                    std::printf(
                        "REGRESSION %s: %.0f < %.0f (baseline "
                        "%.0f - %.0f%%)\n",
                        name.c_str(), r.value, floor, value,
                        maxRegress * 100);
                    bad = true;
                } else {
                    std::printf("ok %s: %.2fx of baseline\n",
                                name.c_str(), r.value / value);
                }
            }
        }
        if (bad)
            return 1;
    }
    return overheadBad ? 1 : 0;
}
