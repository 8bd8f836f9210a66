/**
 * @file
 * Tests for the update-type protocol extension (the paper's future
 * work, section 4.2.3): replicated arrays whose loads are always
 * local and whose stores multicast word updates with gathered
 * acknowledgements.
 */

#include <gtest/gtest.h>

#include "core/dsm_system.hh"

namespace cenju
{
namespace
{

SystemConfig
cfgOf(unsigned nodes)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    return cfg;
}

TEST(UpdateProtocol, EveryReplicaSeesTheStore)
{
    DsmSystem sys(cfgOf(8));
    PrivArray x = sys.shmAllocReplicated(32);
    std::vector<double> got(8, 0);
    sys.run([&](Env &env) -> Task {
        if (env.id() == 3)
            co_await env.put(x, 7, 42.5);
        co_await env.barrier();
        got[env.id()] = co_await env.get(x, 7);
    });
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_DOUBLE_EQ(got[n], 42.5) << "node " << n;
}

TEST(UpdateProtocol, ReadsAreLocalAfterUpdates)
{
    DsmSystem sys(cfgOf(16));
    PrivArray x = sys.shmAllocReplicated(64);
    RunStats r = sys.run([&](Env &env) -> Task {
        // Owner-computes writes...
        for (unsigned i = env.id(); i < 64; i += env.numNodes())
            co_await env.put(x, i, double(i));
        co_await env.barrier();
        // ...then every node reads everything.
        double sum = 0;
        for (unsigned i = 0; i < 64; ++i)
            sum += co_await env.get(x, i);
        (void)sum;
    });
    // All accesses classified private: never a remote DSM load.
    EXPECT_EQ(r.accSharedLocal, 0u);
    EXPECT_EQ(r.accSharedRemote, 0u);
    EXPECT_GT(r.accPrivate, 0u);
}

TEST(UpdateProtocol, UpdatesRefreshCachedCopies)
{
    // A node that has the word cached sees the new value without
    // taking a miss: the update writes the cached line in place.
    DsmSystem sys(cfgOf(4));
    PrivArray x = sys.shmAllocReplicated(16);
    std::vector<double> second(4, 0);
    RunStats r = sys.run([&](Env &env) -> Task {
        double warm = co_await env.get(x, 3); // cache the line
        (void)warm;
        co_await env.barrier();
        if (env.id() == 0)
            co_await env.put(x, 3, 9.25);
        co_await env.barrier();
        second[env.id()] = co_await env.get(x, 3);
    });
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_DOUBLE_EQ(second[n], 9.25);
    // The second read hits in every cache: only the first (cold)
    // read of each node could miss.
    EXPECT_LE(r.cacheMisses, 4u);
}

TEST(UpdateProtocol, SingleWriterStreamStaysOrdered)
{
    DsmSystem sys(cfgOf(8));
    PrivArray x = sys.shmAllocReplicated(8);
    std::vector<double> got(8, 0);
    sys.run([&](Env &env) -> Task {
        if (env.id() == 1) {
            for (int v = 1; v <= 20; ++v)
                co_await env.put(x, 0, double(v));
        }
        co_await env.barrier();
        got[env.id()] = co_await env.get(x, 0);
    });
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_DOUBLE_EQ(got[n], 20.0);
}

TEST(UpdateProtocol, CountersTrackRounds)
{
    DsmSystem sys(cfgOf(8));
    PrivArray x = sys.shmAllocReplicated(8);
    sys.run([&](Env &env) -> Task {
        if (env.id() == 2) {
            co_await env.put(x, 1, 1.0);
            co_await env.put(x, 2, 2.0);
        }
        co_await env.barrier();
    });
    EXPECT_EQ(sys.node(2).master().updateStores.value(), 2u);
    std::uint64_t applied = 0;
    for (NodeId n = 0; n < 8; ++n)
        applied += sys.node(n).slave().updatesReceived.value();
    EXPECT_EQ(applied, 2u * 8u); // every replica, both rounds
}

TEST(UpdateProtocol, StoreLatencyIsOneGatherRound)
{
    // The update store costs one multicast + gathered-ack round —
    // the same scalable shape as Figure 10's invalidation round —
    // independent of how many nodes cache the word. The growth
    // bound is a property of the fabric's in-network gathering, so
    // pin the bare multistage backend (DirectTransport deliberately
    // serializes the fanout and breaks it — that contrast is
    // bench/fig10_store_latency's job to show — and the e2e
    // decorator fans multicasts out into unicasts by design).
    auto storeLat = [](unsigned nodes) {
        SystemConfig cfg = cfgOf(nodes);
        cfg.transport = TransportKind::Multistage;
        cfg.reliability = ReliabilityKind::Off;
        DsmSystem sys(cfg);
        PrivArray x = sys.shmAllocReplicated(8);
        Tick t = 0;
        sys.run([&](Env &env) -> Task {
            co_await env.barrier();
            if (env.id() == 0) {
                Tick t0 = env.now();
                co_await env.put(x, 0, 5.0);
                t = env.now() - t0;
            }
            co_await env.barrier();
        });
        return t;
    };
    Tick l16 = storeLat(16);
    Tick l64 = storeLat(64);
    // Grows with stage count (2 -> 4 stages), not node count.
    EXPECT_GT(l64, l16);
    EXPECT_LT(l64, 3 * l16);
}

TEST(UpdateProtocol, MixesWithNormalTraffic)
{
    DsmSystem sys(cfgOf(8));
    PrivArray x = sys.shmAllocReplicated(16);
    ShmArray y = sys.shmAlloc(16, Mapping::blocked());
    PrivArray z = sys.privAlloc(16);
    std::vector<double> sums(8, 0);
    sys.run([&](Env &env) -> Task {
        co_await env.put(x, env.id(), 1.0);
        co_await env.put(y, env.id(), 2.0);
        co_await env.put(z, env.id(), 4.0);
        co_await env.barrier();
        double s = 0;
        for (unsigned i = 0; i < 8; ++i) {
            s += co_await env.get(x, i); // replicated: all 1.0
            s += co_await env.get(y, i); // shared: all 2.0
        }
        s += co_await env.get(z, env.id()); // private: own 4.0
        sums[env.id()] = s;
    });
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_DOUBLE_EQ(sums[n], 8 * 3.0 + 4.0);
}

} // namespace
} // namespace cenju
