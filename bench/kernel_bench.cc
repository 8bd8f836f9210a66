/**
 * @file
 * Simulation-kernel microbenchmarks: raw event-scheduling
 * throughput, network packet forwarding, multicast destination
 * decode, directory bit-pattern and map encoding, and
 * coherence-packet allocation churn.
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

/**
 * Scheduling throughput with a shallow queue: a ring of
 * self-rescheduling events whose closures carry a typical
 * simulator-sized capture (a this-pointer plus a few words). The
 * old kernel paid one heap allocation per schedule for captures
 * past std::function's tiny inline buffer.
 */
Result
benchSchedRing(std::uint64_t total)
{
    EventQueue eq;
    std::uint64_t remaining = total;
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
    return {"sched_ring", "events_per_sec", double(ran) / s, ran,
            s};
}

/** Scheduling throughput against a deep pending-event heap. */
Result
benchSchedDeep(std::uint64_t total)
{
    EventQueue eq;
    std::uint64_t remaining = total;
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
    return {"sched_deep", "events_per_sec", double(ran) / s, ran,
            s};
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
benchPackets(std::uint64_t total)
{
    EventQueue eq;
    NetConfig cfg;
    cfg.numNodes = 64;
    Network net(eq, cfg);
    std::uint64_t budget = total;
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
    return {"packets", "packets_per_sec", double(delivered) / s,
            delivered, s};
}

/**
 * Multicast destination decode throughput: bit-pattern DestSpecs
 * over a 1024-node address space, the operation every switch on a
 * multicast tree needs (once per message with the cache).
 */
Result
benchMulticastDecode(std::uint64_t total)
{
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
    return {"multicast_decode", "decodes_per_sec",
            double(total) / s, total, s};
}

/**
 * Bit-pattern insert throughput: the per-sharer operation a
 * directory entry in coarse (bit-pattern) mode performs on every
 * read miss.
 */
Result
benchBitPatternAdd(std::uint64_t total)
{
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
    return {"bitpattern_add", "adds_per_sec", double(total) / s, total,
            s};
}

/**
 * Directory-entry encode/decode throughput: CenjuNodeMap pack and
 * unpack round trips over 2-, 8- and 64-sharer maps (pointer form
 * and both bit-pattern shapes), as the directory does on every
 * entry access.
 */
Result
benchMapPackUnpack(std::uint64_t total)
{
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
    return {"map_pack_unpack", "roundtrips_per_sec", double(total) / s,
            total, s};
}

/**
 * Coherence-packet allocation churn: the allocate/free pattern of
 * the forwarding and clone paths, batched the way multicast
 * replication batches it.
 */
Result
benchPacketAlloc(std::uint64_t total)
{
    std::vector<std::unique_ptr<CohPacket>> live;
    live.reserve(64);
    std::uint64_t made = 0;
    auto t0 = clk::now();
    while (made < total) {
        for (unsigned i = 0; i < 64; ++i, ++made) {
            auto p = std::make_unique<CohPacket>();
            p->type = CohMsgType::Invalidate;
            p->addr = made * blockBytes;
            live.push_back(std::move(p));
        }
        live.clear();
    }
    double s = secondsSince(t0);
    return {"packet_alloc", "packets_per_sec", double(made) / s,
            made, s};
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
benchStress1024(std::uint64_t budget, unsigned shards,
                const char *name)
{
    fault::StressOptions opts;
    opts.nodes = 1024;
    opts.transport = TransportKind::Ideal;
    fault::StressCase c = fault::makeStressCase(1, opts);
    auto t0 = clk::now();
    fault::StressResult r = fault::runStressCase(c, budget, shards);
    double s = secondsSince(t0);
    if (r.digest == 0)
        std::fprintf(stderr, "impossible\n"); // keep run observable
    return {name, "events_per_sec", double(r.events) / s, r.events,
            s};
}

Result
benchStress1024Seq(std::uint64_t budget)
{
    return benchStress1024(budget, 1, "stress_1024_seq");
}

Result
benchStress1024Sh8(std::uint64_t budget)
{
    return benchStress1024(budget, 8, "stress_1024_sh8");
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
benchHotspot(unsigned nodes, TransportKind t, const char *name,
             std::uint64_t opsPerNode)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.transport = t;
    cfg.proto.runtimeChecks = false;
    auto t0 = clk::now();
    DsmSystem sys(cfg);
    ShmArray ctr = sys.shmAllocCombinable(1);
    Addr a = ctr.addrOf(0);
    RunStats rs = sys.run([&](Env &env) -> Task {
        for (std::uint64_t i = 0; i < opsPerNode; ++i)
            (void)co_await env.atomicFetchAdd(a, 1);
        co_await env.barrier();
    });
    double s = secondsSince(t0);
    if (std::getenv("CENJU_BENCH_DEBUG") &&
        t == TransportKind::Multistage)
        std::fprintf(stderr,
                     "%s: merged=%llu skipped=%llu ticks=%llu\n",
                     name,
                     (unsigned long long)sys.network()
                         .combineMerged()
                         .value(),
                     (unsigned long long)sys.network()
                         .combineSkipped()
                         .value(),
                     (unsigned long long)rs.execTime);
    const std::uint64_t total = nodes * opsPerNode;
    const std::uint64_t final =
        sys.node(addr_map::homeNode(a))
            .sharedMem()
            .readWord(addr_map::offset(a));
    if (final != total || rs.execTime == 0)
        std::fprintf(stderr,
                     "hotspot %s: bad sum %llu != %llu\n", name,
                     (unsigned long long)final,
                     (unsigned long long)total);
    return {name, "atomics_per_sim_ms",
            double(total) * 1e6 / double(rs.execTime), total, s};
}

Result
benchHotspot256Multistage(std::uint64_t ops)
{
    return benchHotspot(256, TransportKind::Multistage,
                        "hotspot_256_multistage", ops);
}

Result
benchHotspot256Direct(std::uint64_t ops)
{
    return benchHotspot(256, TransportKind::Direct,
                        "hotspot_256_direct", ops);
}

Result
benchHotspot1024Multistage(std::uint64_t ops)
{
    return benchHotspot(1024, TransportKind::Multistage,
                        "hotspot_1024_multistage", ops);
}

Result
benchHotspot1024Direct(std::uint64_t ops)
{
    return benchHotspot(1024, TransportKind::Direct,
                        "hotspot_1024_direct", ops);
}

/**
 * Queuing-protocol hot path: 256 masters hammer one home block
 * with stores, so every request after the first takes the
 * conflict path — park in the home's main-memory FIFO, serve in
 * order on reply completion. This is the inner loop the policy
 * seam (src/policy/) virtualized; the metric is stores per
 * *simulated* millisecond, bit-deterministic across hosts, so the
 * perf-smoke gate catches any extra hop or re-park the seam might
 * introduce exactly. The protocol is pinned (not CENJU_PROTOCOL)
 * for the same reason the stress goldens pin it.
 */
Result
benchCohQueuing256(std::uint64_t opsPerNode)
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
        kick(n, opsPerNode);
    sys.eq().run();
    double s = secondsSince(t0);
    const std::uint64_t total = cfg.numNodes * opsPerNode;
    if (done != total || sys.eq().now() == 0 ||
        sys.node(0).home().nacksSent.value() != 0)
        std::fprintf(stderr,
                     "coh_queuing_256: bad run (%llu/%llu done, "
                     "%llu nacks)\n",
                     (unsigned long long)done,
                     (unsigned long long)total,
                     (unsigned long long)sys.node(0)
                         .home()
                         .nacksSent.value());
    return {"coh_queuing_256", "stores_per_sim_ms",
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
benchReliableStores(ReliabilityKind rel, unsigned dropPeriod,
                    const char *name, std::uint64_t opsPerNode)
{
    SystemConfig cfg;
    cfg.numNodes = 64;
    cfg.reliability = rel;
    cfg.proto.runtimeChecks = false;
    cfg.proto.cacheBytes = 4096; // 32 lines: force wire traffic
    auto t0 = clk::now();
    DsmSystem sys(cfg);
    fault::FaultInjector injector(sys);
    if (dropPeriod != 0) {
        fault::FaultPlan plan;
        for (unsigned n = 0; n < cfg.numNodes; ++n) {
            fault::FaultEvent e;
            e.kind = fault::FaultKind::DropMsg;
            e.start = 0;
            e.duration = Tick(1) << 40;
            e.node = n;
            e.amount = dropPeriod;
            plan.events.push_back(e);
        }
        injector.arm(plan);
    }
    constexpr unsigned blocksPerNode = 64; // > cache lines: evicts
    RunStats rs = sys.run([&](Env &env) -> Task {
        NodeId home = NodeId((env.id() + 1) % cfg.numNodes);
        for (std::uint64_t i = 0; i < opsPerNode; ++i) {
            Addr a = addr_map::makeShared(
                home, Addr(i % blocksPerNode) * blockBytes);
            co_await env.store(a, i + 1);
        }
    });
    double s = secondsSince(t0);
    const std::uint64_t total = cfg.numNodes * opsPerNode;
    if (rs.execTime == 0)
        std::fprintf(stderr, "impossible\n");
    return {name, "stores_per_sim_ms",
            double(total) * 1e6 / double(rs.execTime), total, s};
}

Result
benchReliableOff(std::uint64_t ops)
{
    return benchReliableStores(ReliabilityKind::Off, 0,
                               "reliable_off", ops);
}

Result
benchReliableE2e(std::uint64_t ops)
{
    return benchReliableStores(ReliabilityKind::E2e, 0,
                               "reliable_e2e", ops);
}

Result
benchReliableGoodputP16(std::uint64_t ops)
{
    return benchReliableStores(ReliabilityKind::E2e, 16,
                               "reliable_goodput_p16", ops);
}

Result
benchReliableGoodputP4(std::uint64_t ops)
{
    return benchReliableStores(ReliabilityKind::E2e, 4,
                               "reliable_goodput_p4", ops);
}

Result
benchReliableGoodputP3(std::uint64_t ops)
{
    return benchReliableStores(ReliabilityKind::E2e, 3,
                               "reliable_goodput_p3", ops);
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
    struct Bench
    {
        const char *name;
        Result (*fn)(std::uint64_t);
        std::uint64_t work;
        bool quickSkip = false;
    };
    const Bench benches[] = {
        {"sched_ring", benchSchedRing, 1000000 * scale},
        {"sched_deep", benchSchedDeep, 500000 * scale},
        {"packets", benchPackets, 100000 * scale},
        {"multicast_decode", benchMulticastDecode,
         500000 * scale},
        {"bitpattern_add", benchBitPatternAdd, 20000000 * scale},
        {"map_pack_unpack", benchMapPackUnpack, 5000000 * scale},
        {"packet_alloc", benchPacketAlloc, 1000000 * scale},
        {"stress_1024_seq", benchStress1024Seq, 2000000, true},
        {"stress_1024_sh8", benchStress1024Sh8, 2000000, true},
        // Hot-spot work items are NOT scaled: the metric is
        // simulated-time-derived, so quick and full runs produce
        // the same value and the quick run can gate exactly.
        {"hotspot_256_multistage", benchHotspot256Multistage, 16},
        {"hotspot_256_direct", benchHotspot256Direct, 16},
        {"hotspot_1024_multistage", benchHotspot1024Multistage, 8,
         true},
        {"hotspot_1024_direct", benchHotspot1024Direct, 8, true},
        // Simulated-time metric like the hot-spot pair: quick and
        // full runs produce the same value, so the quick CI gate
        // checks the queuing conflict path exactly.
        {"coh_queuing_256", benchCohQueuing256, 8},
        // Reliability decorator: clean-path overhead pair plus the
        // goodput-vs-loss-rate curve. Simulated-time metrics, so
        // the quick run gates them exactly too.
        {"reliable_off", benchReliableOff, 96},
        {"reliable_e2e", benchReliableE2e, 96},
        {"reliable_goodput_p16", benchReliableGoodputP16, 96},
        {"reliable_goodput_p4", benchReliableGoodputP4, 96},
        {"reliable_goodput_p3", benchReliableGoodputP3, 96},
    };

    std::vector<Result> results;
    std::printf("%-18s %16s %14s %10s\n", "bench", "metric",
                "ops/sec", "seconds");
    for (const Bench &b : benches) {
        if (!filter.empty() && filter != b.name)
            continue;
        if (b.quickSkip && quick)
            continue;
        Result r = b.fn(b.work);
        std::printf("%-18s %16s %14.0f %10.3f\n", r.name.c_str(),
                    r.metric.c_str(), r.value, r.seconds);
        results.push_back(std::move(r));
    }

    // Derived shard-scaling metric: events/sec ratio of the 8-shard
    // run over sequential at 1024 nodes (bounded by the host's
    // hardware threads; 1.0 means no parallel win).
    {
        const Result *seq = nullptr, *sh8 = nullptr;
        for (const Result &r : results) {
            if (r.name == "stress_1024_seq")
                seq = &r;
            else if (r.name == "stress_1024_sh8")
                sh8 = &r;
        }
        if (seq && sh8 && seq->value > 0) {
            Result ratio{"stress_1024_speedup", "x_seq",
                         sh8->value / seq->value, 0, 0};
            std::printf("%-18s %16s %14.2f %10s\n",
                        ratio.name.c_str(), ratio.metric.c_str(),
                        ratio.value, "-");
            results.push_back(std::move(ratio));
        }
    }

    // Derived combining metric: simulated hot-spot throughput of
    // in-network combining over the direct software-tree baseline
    // at 1024 nodes (> 1 means combining wins; both inputs are
    // deterministic, so this ratio is too).
    for (unsigned n : {256u, 1024u}) {
        const Result *multi = nullptr, *direct = nullptr;
        std::string mName =
            "hotspot_" + std::to_string(n) + "_multistage";
        std::string dName =
            "hotspot_" + std::to_string(n) + "_direct";
        for (const Result &r : results) {
            if (r.name == mName)
                multi = &r;
            else if (r.name == dName)
                direct = &r;
        }
        if (multi && direct && direct->value > 0) {
            Result ratio{"hotspot_" + std::to_string(n) +
                             "_combining_speedup",
                         "x_direct", multi->value / direct->value,
                         0, 0};
            std::printf("%-18s %16s %14.2f %10s\n",
                        ratio.name.c_str(), ratio.metric.c_str(),
                        ratio.value, "-");
            results.push_back(std::move(ratio));
        }
    }

    // Derived reliability metric and in-bench gate: clean-path
    // throughput of the decorator over the bare backend. Both
    // inputs are simulated-time metrics on an identical workload,
    // so the ratio is deterministic; the decorator's contract is
    // that exactly-once bookkeeping costs nothing on a clean wire
    // (acks are out of band), with 5% headroom.
    bool overheadBad = false;
    {
        const Result *off = nullptr, *e2e = nullptr;
        for (const Result &r : results) {
            if (r.name == "reliable_off")
                off = &r;
            else if (r.name == "reliable_e2e")
                e2e = &r;
        }
        if (off && e2e && off->value > 0) {
            Result ratio{"reliable_e2e_clean_ratio", "x_off",
                         e2e->value / off->value, 0, 0};
            std::printf("%-18s %16s %14.2f %10s\n",
                        ratio.name.c_str(), ratio.metric.c_str(),
                        ratio.value, "-");
            if (ratio.value < 0.95) {
                std::printf("REGRESSION reliable_e2e: clean-path "
                            "throughput %.3fx of reliable_off "
                            "(floor 0.95)\n",
                            ratio.value);
                overheadBad = true;
            }
            results.push_back(std::move(ratio));
        }
    }

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
