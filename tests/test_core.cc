/**
 * @file
 * End-to-end tests of the public API: coroutine programs, shared
 * arrays and mappings, barriers/reductions, message passing, and
 * run statistics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/dsm_system.hh"

namespace cenju
{
namespace
{

SystemConfig
smallCfg(unsigned nodes)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    return cfg;
}

TEST(DsmSystem, QuickstartNeighborExchange)
{
    DsmSystem sys(smallCfg(8));
    ShmArray x = sys.shmAlloc(8, Mapping::blocked());
    std::vector<double> seen(8, -1.0);

    sys.run([&](Env &env) -> Task {
        co_await env.put(x, env.id(), double(env.id()) * 1.5);
        co_await env.barrier();
        NodeId nb = (env.id() + 1) % env.numNodes();
        seen[env.id()] = co_await env.get(x, nb);
    });

    for (NodeId n = 0; n < 8; ++n) {
        EXPECT_DOUBLE_EQ(seen[n], double((n + 1) % 8) * 1.5)
            << "node " << n;
    }
}

TEST(DsmSystem, BarrierSeparatesPhases)
{
    // Without working barriers, some node would read a stale zero.
    DsmSystem sys(smallCfg(16));
    ShmArray x = sys.shmAlloc(16, Mapping::blockCyclic());
    bool ok = true;

    sys.run([&](Env &env) -> Task {
        for (int phase = 1; phase <= 5; ++phase) {
            co_await env.put(x, env.id(), phase * 100.0 + env.id());
            co_await env.barrier();
            // Read every element; all must show the current phase.
            for (NodeId n = 0; n < env.numNodes(); ++n) {
                double v = co_await env.get(x, n);
                if (v != phase * 100.0 + n)
                    ok = false;
            }
            co_await env.barrier();
        }
    });
    EXPECT_TRUE(ok);
}

TEST(DsmSystem, AllReduceSumsContributions)
{
    DsmSystem sys(smallCfg(16));
    std::vector<double> totals(16, 0.0);
    sys.run([&](Env &env) -> Task {
        totals[env.id()] =
            co_await env.allReduceSum(double(env.id() + 1));
    });
    for (double t : totals)
        EXPECT_DOUBLE_EQ(t, 16.0 * 17.0 / 2.0);
}

TEST(DsmSystem, SendRecvPingPong)
{
    DsmSystem sys(smallCfg(4));
    std::uint64_t got = 0;
    std::vector<std::function<Task(Env &)>> progs(4);
    progs[0] = [&](Env &env) -> Task {
        std::vector<std::uint64_t> data;
        data.push_back(42);
        data.push_back(43);
        co_await env.send(1, 7, std::move(data));
        auto reply = co_await env.recv(1, 8);
        got = reply[0];
    };
    progs[1] = [](Env &env) -> Task {
        auto msg = co_await env.recv(0, 7);
        std::vector<std::uint64_t> reply(1, msg[0] + msg[1]);
        co_await env.send(0, 8, std::move(reply));
    };
    progs[2] = [](Env &) -> Task { co_return; };
    progs[3] = [](Env &) -> Task { co_return; };
    sys.runEach(progs);
    EXPECT_EQ(got, 85u);
}

TEST(DsmSystem, MpiLatencyMatchesPaper)
{
    // Paper: 9.1 us one-way small-message latency on a 128-node
    // (4-stage) system.
    DsmSystem sys(smallCfg(128));
    Tick arrival = 0;
    std::vector<std::function<Task(Env &)>> progs(
        128, [](Env &) -> Task { co_return; });
    progs[0] = [](Env &env) -> Task {
        std::vector<std::uint64_t> one(1, 1);
        co_await env.send(100, 1, std::move(one));
    };
    progs[100] = [&](Env &env) -> Task {
        co_await env.recv(0, 1);
        arrival = env.now();
    };
    sys.runEach(progs);
    EXPECT_NEAR(double(arrival), 9100.0, 200.0);
}

TEST(Mapping, BlockedOwnership)
{
    DsmSystem sys(smallCfg(4));
    ShmArray x = sys.shmAlloc(100, Mapping::blocked());
    // ceil(100/4)=25 per node.
    EXPECT_EQ(x.ownerOf(0), 0u);
    EXPECT_EQ(x.ownerOf(24), 0u);
    EXPECT_EQ(x.ownerOf(25), 1u);
    EXPECT_EQ(x.ownerOf(99), 3u);
    EXPECT_EQ(addr_map::homeNode(x.addrOf(99)), 3u);
}

TEST(Mapping, BlockCyclicSpreadsBlocks)
{
    DsmSystem sys(smallCfg(4));
    ShmArray x = sys.shmAlloc(256, Mapping::blockCyclic());
    // 16 words per block: words 0..15 on node 0, 16..31 on 1, ...
    EXPECT_EQ(x.ownerOf(0), 0u);
    EXPECT_EQ(x.ownerOf(15), 0u);
    EXPECT_EQ(x.ownerOf(16), 1u);
    EXPECT_EQ(x.ownerOf(63), 3u);
    EXPECT_EQ(x.ownerOf(64), 0u);
}

TEST(Mapping, OnNodeKeepsEverythingAtOneHome)
{
    DsmSystem sys(smallCfg(4));
    ShmArray x = sys.shmAlloc(64, Mapping::onNode(2));
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(x.ownerOf(i), 2u);
}

TEST(Mapping, AllocationsDoNotOverlap)
{
    DsmSystem sys(smallCfg(4));
    ShmArray a = sys.shmAlloc(64, Mapping::blocked());
    ShmArray b = sys.shmAlloc(64, Mapping::blocked());
    for (std::size_t i = 0; i < 64; ++i) {
        for (std::size_t j = 0; j < 64; ++j)
            EXPECT_NE(a.addrOf(i), b.addrOf(j));
    }
}

TEST(Mapping, PrivateArraysPerNode)
{
    DsmSystem sys(smallCfg(4));
    PrivArray p = sys.privAlloc(32);
    std::vector<double> got(4, 0);
    sys.run([&](Env &env) -> Task {
        // Same offsets, distinct per-node memory.
        co_await env.put(p, 3, 10.0 + env.id());
        co_await env.barrier();
        got[env.id()] = co_await env.get(p, 3);
    });
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_DOUBLE_EQ(got[n], 10.0 + n);
}

TEST(RunStats, CountsAndBreakdowns)
{
    // The time buckets below are pinned, so pin what they depend on
    // against the CENJU_* environment defaults.
    SystemConfig cfg = smallCfg(4);
    cfg.transport = TransportKind::Multistage;
    cfg.reliability = ReliabilityKind::Off;
    cfg.proto.protocol = ProtocolKind::Queuing;
    DsmSystem sys(cfg);
    ShmArray x = sys.shmAlloc(4 * 16, Mapping::blocked());
    PrivArray p = sys.privAlloc(16);
    ShmArray counter = sys.shmAllocCombinable(1); // homed on node 0
    RunStats r = sys.run([&](Env &env) -> Task {
        co_await env.compute(100);
        co_await env.put(p, 0, 1.0);
        co_await env.put(x, env.id() * 16, 2.0); // local shared
        NodeId nb = (env.id() + 1) % env.numNodes();
        co_await env.get(x, nb * 16); // remote shared
        co_await env.barrier();
        co_await env.allReduceSum(1.0);
        co_await env.atomicFetchAdd(counter.addrOf(0), 1);
        std::vector<std::uint64_t> msg(1, env.id());
        co_await env.send(nb, 1, std::move(msg));
        co_await env.recv((env.id() + 3) % env.numNodes(), 1);
    });

    EXPECT_EQ(r.memAccesses, 4u * 4u);
    EXPECT_EQ(r.instructions, 4u * (100 + 4));
    EXPECT_EQ(r.accPrivate, 4u);
    EXPECT_EQ(r.accSharedLocal, 4u + 1u);
    EXPECT_EQ(r.accSharedRemote, 4u + 3u);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.missRatio(), 0.0);

    // Simulated time per bucket, summed over the nodes (Table 4's
    // breakdown); the values pin today's timing model.
    EXPECT_EQ(r.computeTime, 4u * 100u * 3u);
    EXPECT_EQ(r.memTime, 10880u);
    EXPECT_EQ(r.syncTime, 248456u);
    EXPECT_EQ(r.commTime, 51922u);
}

/** Every master, home and slave statistic of @p node, then its
 * sentCount() (sample statistics by their sample count). */
std::vector<std::uint64_t>
nodeCounts(DsmNode &node)
{
    const MasterModule &m = node.master();
    const HomeModule &h = node.home();
    const SlaveModule &s = node.slave();
    return {
        m.cacheHits.value(), m.cacheMisses.value(),
        m.missPrivate.value(), m.missSharedLocal.value(),
        m.missSharedRemote.value(), m.accPrivate.value(),
        m.accSharedLocal.value(), m.accSharedRemote.value(),
        m.writebacks.value(), m.nackRetries.value(),
        m.ownershipReissues.value(), m.updateStores.value(),
        m.atomicOps.value(), m.loadMissLatency.count(),
        m.storeMissLatency.count(),
        h.requestsProcessed.value(), h.requestsQueued.value(),
        h.nacksSent.value(), h.invalidationMulticasts.value(),
        h.invalidationUnicasts.value(), h.writebacksProcessed.value(),
        h.gatherWaits.value(), h.atomicsProcessed.value(),
        h.queueWaitDepth.count(),
        s.invalidationsReceived.value(), s.forwardsReceived.value(),
        s.updatesReceived.value(), s.memOverflowed.value(),
        node.sentCount(),
    };
}

TEST(RunStats, SecondRunStartsClean)
{
    DsmSystem sys(smallCfg(4));
    PrivArray p = sys.privAlloc(16);
    auto prog = [&](Env &env) -> Task {
        co_await env.put(p, env.id() % 16, 1.0);
    };
    RunStats r1 = sys.run(prog);
    RunStats r2 = sys.run(prog);
    EXPECT_EQ(r1.memAccesses, r2.memAccesses);
    // Second run hits in the cache: fewer misses.
    EXPECT_LT(r2.cacheMisses, r1.cacheMisses + 1);

    // The per-node statistics restart too: after every node stores
    // into one block homed on node 0, an empty run reads all zero.
    ShmArray blk = sys.shmAlloc(4, Mapping::onNode(0));
    sys.run([&](Env &env) -> Task {
        co_await env.put(blk, env.id(), 1.0);
    });
    EXPECT_GT(sys.node(0).home().requestsProcessed.value(), 0u);
    sys.run([](Env &) -> Task { co_return; });
    for (NodeId n = 0; n < 4; ++n) {
        std::vector<std::uint64_t> counts = nodeCounts(sys.node(n));
        EXPECT_EQ(counts, std::vector<std::uint64_t>(counts.size(), 0))
            << "node " << n;
    }
}

TEST(RunStats, DeterministicAcrossSystems)
{
    auto once = [] {
        DsmSystem sys(smallCfg(8));
        ShmArray x = sys.shmAlloc(128, Mapping::blockCyclic());
        RunStats r = sys.run([&](Env &env) -> Task {
            for (int i = 0; i < 20; ++i) {
                co_await env.put(
                    x, (env.id() * 17 + i * 3) % 128, i);
                if (i % 5 == 0)
                    co_await env.barrier();
            }
        });
        return r.execTime;
    };
    EXPECT_EQ(once(), once());
}

TEST(DsmSystem, MismatchedBarrierIsReportedAsDeadlock)
{
    EXPECT_EXIT(
        {
            DsmSystem sys(smallCfg(4));
            sys.run([&](Env &env) -> Task {
                if (env.id() == 0)
                    co_return; // node 0 skips the barrier
                co_await env.barrier();
            });
        },
        ::testing::ExitedWithCode(1), "deadlock");
}

/** Build and destroy a system that allocates one replicated and one
 * combinable array, leaving @p cfg for the next system to reuse. */
void
allocSpecialArraysOn(const SystemConfig &cfg)
{
    DsmSystem a(cfg);
    a.shmAllocReplicated(16);
    a.shmAllocCombinable(1);
}

TEST(DsmSystem, ReusedConfigStartsWithoutReplicatedRanges)
{
    // The replicated array of an earlier system built from the same
    // config must not turn a later plain private array's stores into
    // update-protocol multicasts.
    SystemConfig cfg = smallCfg(4);
    allocSpecialArraysOn(cfg);
    DsmSystem b(cfg);
    PrivArray p = b.privAlloc(16);
    b.run([&](Env &env) -> Task {
        co_await env.put(p, env.id(), 1.0);
    });
    std::uint64_t updates = 0;
    for (NodeId n = 0; n < 4; ++n)
        updates += b.node(n).master().updateStores.value();
    EXPECT_EQ(updates, 0u);
}

TEST(DsmSystem, ReusedConfigStartsWithoutCombinableRanges)
{
    // A plain shared word at the offset where an earlier system kept
    // its combinable word is not combinable: atomics on it panic.
    SystemConfig cfg = smallCfg(4);
    allocSpecialArraysOn(cfg);
    EXPECT_DEATH(
        {
            DsmSystem b(cfg);
            ShmArray w = b.shmAlloc(1, Mapping::onNode(0));
            Addr a = w.addrOf(0);
            b.run([&](Env &env) -> Task {
                if (env.id() == 1)
                    (void)co_await env.atomicFetchAdd(a, 1);
            });
        },
        "node 1: atomic fetch-add on non-combinable");
}

TEST(DsmSystem, LargeSystemSmoke)
{
    DsmSystem sys(smallCfg(128));
    ShmArray x = sys.shmAlloc(128, Mapping::blocked());
    std::vector<double> totals(128, 0);
    sys.run([&](Env &env) -> Task {
        co_await env.put(x, env.id(), 1.0);
        co_await env.barrier();
        double sum = 0;
        // Each node reads a strided subset.
        for (NodeId n = env.id() % 4; n < env.numNodes(); n += 4)
            sum += co_await env.get(x, n);
        totals[env.id()] =
            co_await env.allReduceSum(sum);
    });
    // 4 strided classes x 32 reads each of value 1 = 128 summed
    // over all nodes... every node contributed its stride sum (32),
    // so the reduction totals 128 * 32 / ... simply: each node's
    // local sum is 32, total = 128 * 32.
    for (double t : totals)
        EXPECT_DOUBLE_EQ(t, 128.0 * 32.0);
}

TEST(DsmSystem, DmaRangeTransfersAreCoherent)
{
    // writeRange must defeat stale cached copies; readRange must
    // see dirty cached data.
    DsmSystem sys(smallCfg(2));
    PrivArray p = sys.privAlloc(64);
    std::vector<double> seen(4, 0);
    sys.run([&](Env &env) -> Task {
        if (env.id() != 0)
            co_return;
        // Cache a line with a dirty value.
        co_await env.put(p, 5, 1.5);
        // DMA-read sees the dirty cached value.
        auto r = co_await env.readRange(p, 5, 1);
        seen[0] = Env::real(r[0]);
        // Dirty a second word of the line: the DMA write below must
        // write the line back before invalidating it.
        co_await env.put(p, 4, 2.5);
        // DMA-write overwrites memory and invalidates the cache.
        std::vector<std::uint64_t> vals(1, Env::bits(9.0));
        co_await env.writeRange(p, 5, std::move(vals));
        seen[1] = co_await env.get(p, 5);
        seen[3] = co_await env.get(p, 4);
        // Bulk round-trip.
        std::vector<std::uint64_t> many;
        for (int i = 0; i < 32; ++i)
            many.push_back(Env::bits(double(i)));
        co_await env.writeRange(p, 16, std::move(many));
        auto back = co_await env.readRange(p, 16, 32);
        double sum = 0;
        for (auto w : back)
            sum += Env::real(w);
        seen[2] = sum;
    });
    EXPECT_DOUBLE_EQ(seen[0], 1.5);
    EXPECT_DOUBLE_EQ(seen[1], 9.0);
    EXPECT_DOUBLE_EQ(seen[2], 31.0 * 32.0 / 2.0);
    EXPECT_DOUBLE_EQ(seen[3], 2.5);
}

} // namespace
} // namespace cenju
