/**
 * @file
 * Tests for the network: unicast latency and ordering, multicast
 * delivery to exactly the specified set, in-network gathering,
 * back-pressure, determinism, and the event cost and in-tick timing
 * of port releases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "network/network.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

/** Minimal payload-free packet for network tests. */
struct TestPacket : Packet
{
    int tag = 0;

    std::unique_ptr<Packet>
    clone() const override
    {
        return std::make_unique<TestPacket>(*this);
    }
};

/** Endpoint that records deliveries, optionally bounded. */
class RecordingEndpoint : public Endpoint
{
  public:
    RecordingEndpoint(Network &net, NodeId id,
                      unsigned capacity = 1u << 30)
        : _net(net), _id(id), _capacity(capacity)
    {
        net.attach(id, this);
    }

    bool
    reserveDelivery(const Packet &) override
    {
        if (_buffered + _reserved >= _capacity)
            return false;
        ++_reserved;
        return true;
    }

    void
    deliver(PacketPtr pkt) override
    {
        --_reserved;
        ++_buffered;
        arrivals.push_back(std::move(pkt));
        arrivalTicks.push_back(_net.eventQueue().now());
    }

    /** Consume one buffered packet, re-opening endpoint space. */
    void
    consume()
    {
        ASSERT_GT(_buffered, 0u);
        --_buffered;
        _net.deliveryRetry(_id);
    }

    std::vector<PacketPtr> arrivals;
    std::vector<Tick> arrivalTicks;

  private:
    Network &_net;
    NodeId _id;
    unsigned _capacity;
    unsigned _reserved = 0;
    unsigned _buffered = 0;
};

PacketPtr
makeUnicast(NodeId src, NodeId dst, int tag = 0,
            unsigned size = 16)
{
    auto p = std::make_unique<TestPacket>();
    p->src = src;
    p->dest = DestSpec::unicast(dst);
    p->sizeBytes = size;
    p->tag = tag;
    return p;
}

struct NetFixture
{
    explicit NetFixture(unsigned nodes)
    {
        cfg.numNodes = nodes;
        net = std::make_unique<Network>(eq, cfg);
        for (NodeId n = 0; n < nodes; ++n) {
            eps.push_back(std::make_unique<RecordingEndpoint>(
                *net, n));
        }
    }

    EventQueue eq;
    NetConfig cfg;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<RecordingEndpoint>> eps;
};

TEST(Network, UnicastDeliversOnceWithCalibratedLatency)
{
    NetFixture f(16);
    ASSERT_TRUE(f.net->tryInject(makeUnicast(3, 9)));
    f.eq.run();
    ASSERT_EQ(f.eps[9]->arrivals.size(), 1u);
    for (NodeId n = 0; n < 16; ++n) {
        if (n != 9) {
            EXPECT_TRUE(f.eps[n]->arrivals.empty());
        }
    }
    // Uncontended traversal: inject + eject overhead (280) plus one
    // stage latency per stage (2 x 130) = 540 ns.
    EXPECT_EQ(f.eps[9]->arrivalTicks[0], 540u);
    // No port release runs: nothing ever waits behind the packet
    // (PortRelease, network/xbar_switch.hh).
    EXPECT_EQ(f.eq.executed(), 6u);
}

TEST(Network, ContendedReleasesRunOnlyWhenPacketsWait)
{
    // Nodes 0-3 send 144-byte packets to node 9, meeting on four
    // inputs of the stage-1 switch that ejects to it, then node 0
    // sends a 16-byte one behind its first. Each packet leaves one
    // port occupancy (40 + 144 / 2 = 112 ns) after the one ahead of
    // it, so the arrival times pin that every release with a packet
    // waiting runs on time, and the event count pins that the idle
    // ones never exist.
    NetFixture f(16);
    for (NodeId src = 0; src < 4; ++src)
        ASSERT_TRUE(f.net->tryInject(makeUnicast(src, 9, int(src),
                                                 144)));
    ASSERT_TRUE(f.net->tryInject(makeUnicast(0, 9, 4, 16)));
    f.eq.run();
    EXPECT_EQ(f.eps[9]->arrivalTicks,
              (std::vector<Tick>{540, 652, 764, 876, 988}));
    EXPECT_EQ(f.eq.executed(), 32u);
}

TEST(Network, JoinAtTheReleaseTickIsGrantedAtTheReleasePoint)
{
    // Node 0's 144-byte packet holds its stage-0 output from 140 to
    // 252. Node 4, on the same stage-0 switch, injects at 112; its
    // packet joins that output at 252 through a commit scheduled
    // before the grant reserved the release point, so the join
    // comes first within the tick, and the release must run at its
    // point and grant the packet there. A probe scheduled after the
    // grant, for tick 252, sorts after the release point but before
    // the arbitration the join schedules: the packet must already
    // have left the buffer.
    NetFixture f(16);
    const Topology &topo = f.net->topology();
    auto [row, port] = topo.injectPoint(4);
    ASSERT_EQ(topo.injectPoint(0).first, row);
    unsigned out = topo.routeDigit(9, 0);
    XbarSwitch &sw = f.net->switchAt(0, row);

    ASSERT_TRUE(f.net->tryInject(makeUnicast(0, 9, 0, 144)));
    f.eq.schedule(112, [&f] {
        ASSERT_TRUE(f.net->tryInject(makeUnicast(4, 9, 1)));
    });
    unsigned buffered = ~0u;
    f.eq.schedule(200, [&] {
        f.eq.schedule(252, [&] { buffered = sw.occupancy(port, out); });
    });
    f.eq.run();
    EXPECT_EQ(buffered, 0u);
    EXPECT_EQ(f.eps[9]->arrivalTicks, (std::vector<Tick>{540, 652}));
}

TEST(Network, LatencyScalesWithStages)
{
    // 2, 4 and 6 stages.
    for (auto [nodes, expect] :
         {std::pair{16u, 540u}, std::pair{128u, 800u},
          std::pair{1024u, 1060u}}) {
        NetFixture f(nodes);
        ASSERT_TRUE(f.net->tryInject(makeUnicast(1, nodes - 1)));
        f.eq.run();
        ASSERT_EQ(f.eps[nodes - 1]->arrivals.size(), 1u);
        EXPECT_EQ(f.eps[nodes - 1]->arrivalTicks[0], expect);
    }
}

TEST(Network, SelfRouteWorks)
{
    NetFixture f(16);
    ASSERT_TRUE(f.net->tryInject(makeUnicast(5, 5)));
    f.eq.run();
    EXPECT_EQ(f.eps[5]->arrivals.size(), 1u);
}

TEST(Network, InOrderDeliveryPerPair)
{
    NetFixture f(64);
    // The injector holds 4 packets; a refused packet stays with the
    // caller, so run the fabric until it is accepted.
    for (int i = 0; i < 20; ++i) {
        PacketPtr p = makeUnicast(7, 42, i);
        while (!f.net->tryInject(std::move(p)))
            ASSERT_TRUE(f.eq.runOne());
    }
    f.eq.run();
    auto &arr = f.eps[42]->arrivals;
    ASSERT_EQ(arr.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(static_cast<TestPacket &>(*arr[i]).tag, i);
}

TEST(Network, InjectQueueBackpressure)
{
    NetFixture f(16);
    int accepted = 0;
    for (int i = 0; i < 64; ++i) {
        if (f.net->tryInject(makeUnicast(0, 1, i)))
            ++accepted;
    }
    EXPECT_LT(accepted, 64);
    f.eq.run();
    EXPECT_EQ(f.eps[1]->arrivals.size(),
              static_cast<std::size_t>(accepted));
}

// The multicast tests also run on padded sizes (10, 100, 1000
// nodes), where some switch outputs lead only to unused endpoints.

TEST(Network, MulticastPointersDeliversExactly)
{
    for (auto [nodes, dests] :
         {std::pair{64u, std::vector<NodeId>{5, 17, 33, 60}},
          std::pair{10u, std::vector<NodeId>{1, 5, 9}},
          std::pair{100u, std::vector<NodeId>{5, 33, 64, 99}},
          std::pair{1000u, std::vector<NodeId>{5, 260, 768, 999}}}) {
        SCOPED_TRACE(nodes);
        NetFixture f(nodes);
        auto p = std::make_unique<TestPacket>();
        p->src = 0;
        p->dest = DestSpec::pointers(dests);
        ASSERT_TRUE(f.net->tryInject(std::move(p)));
        f.eq.run();
        for (NodeId n = 0; n < nodes; ++n) {
            bool target =
                std::find(dests.begin(), dests.end(), n) != dests.end();
            EXPECT_EQ(f.eps[n]->arrivals.size(), target ? 1u : 0u)
                << "node " << n;
        }
    }
}

TEST(Network, MulticastPatternDeliversDecodedSet)
{
    for (auto [nodes, members] :
         {std::pair{128u, std::vector<NodeId>{3, 64, 67, 100}},
          std::pair{10u, std::vector<NodeId>{3, 7}},
          std::pair{100u, std::vector<NodeId>{3, 64, 67, 99}},
          std::pair{1000u, std::vector<NodeId>{3, 64, 67, 100, 900}}}) {
        SCOPED_TRACE(nodes);
        NetFixture f(nodes);
        BitPattern pat;
        for (NodeId n : members)
            pat.add(n);
        NodeSet expect = pat.decode(nodes);
        auto p = std::make_unique<TestPacket>();
        p->src = 9;
        p->dest = DestSpec::pattern(pat);
        ASSERT_TRUE(f.net->tryInject(std::move(p)));
        f.eq.run();
        for (NodeId n = 0; n < nodes; ++n) {
            EXPECT_EQ(f.eps[n]->arrivals.size(),
                      expect.contains(n) ? 1u : 0u)
                << "node " << n;
        }
    }
}

TEST(Network, MulticastToSingleNodeBehavesAsUnicast)
{
    for (auto [nodes, dst] :
         {std::pair{16u, 11u}, std::pair{10u, 9u},
          std::pair{100u, 99u}, std::pair{1000u, 999u}}) {
        SCOPED_TRACE(nodes);
        NetFixture f(nodes);
        auto p = std::make_unique<TestPacket>();
        p->src = 2;
        p->dest = DestSpec::pointers({dst});
        ASSERT_TRUE(f.net->tryInject(std::move(p)));
        f.eq.run();
        EXPECT_EQ(f.eps[dst]->arrivals.size(), 1u);
        EXPECT_EQ(f.net->multicastCopies.value(), 0u);
    }
}

class NetworkGather : public ::testing::TestWithParam<unsigned>
{};

TEST_P(NetworkGather, CollapsesToExactlyOneReply)
{
    unsigned nodes = GetParam();
    NetFixture f(nodes);
    Rng rng(nodes * 7 + 1);
    NodeId home = static_cast<NodeId>(rng.below(nodes));

    unsigned groupSize =
        static_cast<unsigned>(2 + rng.below(nodes - 1));
    auto members = rng.sampleDistinct(groupSize, nodes);
    auto group = std::make_shared<NodeSet>(nodes);
    for (auto m : members)
        group->insert(m);

    for (auto m : members) {
        auto p = std::make_unique<TestPacket>();
        p->src = m;
        p->dest = DestSpec::unicast(home);
        p->gathered = true;
        p->gatherId = static_cast<std::uint16_t>(home);
        p->gatherGroup = group;
        ASSERT_TRUE(f.net->tryInject(std::move(p)));
    }
    f.eq.run();
    EXPECT_EQ(f.eps[home]->arrivals.size(), 1u)
        << nodes << " nodes, " << groupSize << " members, home "
        << home;
    // No gather table entry should remain active anywhere.
    for (unsigned s = 0; s < f.net->topology().stages(); ++s) {
        for (unsigned r = 0; r < f.net->topology().rowsPerStage();
             ++r) {
            EXPECT_EQ(
                f.net->switchAt(s, r).gatherTable().activeCount(),
                0u);
        }
    }
    // Every member's reply is accounted for: absorbed merges plus
    // the replies that advanced a stage sum to the group size minus
    // nothing (each absorb removes exactly one in-flight reply).
    EXPECT_EQ(f.net->gatherAbsorbed.value(), groupSize - 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkGather,
                         ::testing::Values(16u, 64u, 128u, 256u, 10u,
                                           100u, 1000u));

TEST(Network, GatherStress)
{
    // Many sequential gathers reusing the same identifier.
    NetFixture f(64);
    Rng rng(5);
    for (int round = 0; round < 20; ++round) {
        NodeId home = static_cast<NodeId>(rng.below(64));
        auto members = rng.sampleDistinct(
            static_cast<std::uint32_t>(2 + rng.below(62)), 64);
        auto group = std::make_shared<NodeSet>(64u);
        for (auto m : members)
            group->insert(m);
        std::size_t before = f.eps[home]->arrivals.size();
        for (auto m : members) {
            auto p = std::make_unique<TestPacket>();
            p->src = m;
            p->dest = DestSpec::unicast(home);
            p->gathered = true;
            p->gatherId = static_cast<std::uint16_t>(home);
            p->gatherGroup = group;
            ASSERT_TRUE(f.net->tryInject(std::move(p)));
        }
        f.eq.run();
        EXPECT_EQ(f.eps[home]->arrivals.size(), before + 1);
    }
}

TEST(Network, EjectBackpressureEventuallyDrains)
{
    // An endpoint with capacity 1 that consumes slowly: everything
    // still arrives, in order.
    EventQueue eq;
    NetConfig cfg;
    cfg.numNodes = 16;
    Network net(eq, cfg);
    std::vector<std::unique_ptr<RecordingEndpoint>> eps;
    for (NodeId n = 0; n < 16; ++n) {
        eps.push_back(std::make_unique<RecordingEndpoint>(
            net, n, n == 9 ? 1 : 1u << 30));
    }
    unsigned accepted = 0;
    for (int i = 0; i < 4; ++i) {
        if (net.tryInject(makeUnicast(3, 9, i)))
            ++accepted;
    }
    ASSERT_EQ(accepted, 4u);
    // Drain: whenever node 9 holds one packet, consume it.
    std::size_t consumed = 0;
    while (consumed < 4) {
        eq.run();
        if (eps[9]->arrivals.size() > consumed) {
            eps[9]->consume();
            ++consumed;
        } else {
            break;
        }
    }
    eq.run();
    EXPECT_EQ(eps[9]->arrivals.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(static_cast<TestPacket &>(*eps[9]->arrivals[i])
                      .tag,
                  i);
    }
}

TEST(Network, ManyToOneHotSpotDeliversAll)
{
    NetFixture f(64);
    unsigned accepted = 0;
    for (NodeId src = 0; src < 64; ++src) {
        if (src == 10)
            continue;
        if (f.net->tryInject(makeUnicast(src, 10)))
            ++accepted;
    }
    f.eq.run();
    EXPECT_EQ(f.eps[10]->arrivals.size(), accepted);
    EXPECT_EQ(accepted, 63u);
}

TEST(Network, RandomTrafficIsLossless)
{
    NetFixture f(128);
    Rng rng(77);
    unsigned sent = 0;
    std::vector<unsigned> expect(128, 0);
    for (int i = 0; i < 500; ++i) {
        NodeId src = static_cast<NodeId>(rng.below(128));
        NodeId dst = static_cast<NodeId>(rng.below(128));
        if (f.net->tryInject(makeUnicast(src, dst, i))) {
            ++sent;
            ++expect[dst];
        }
        // Drain periodically so injection queues free up.
        if (i % 50 == 49)
            f.eq.run();
    }
    f.eq.run();
    unsigned got = 0;
    for (NodeId n = 0; n < 128; ++n) {
        EXPECT_EQ(f.eps[n]->arrivals.size(), expect[n]);
        got += f.eps[n]->arrivals.size();
    }
    EXPECT_EQ(got, sent);
    EXPECT_EQ(f.net->deliveredCount(), sent);
}

TEST(Network, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        NetFixture f(64);
        Rng rng(31337);
        for (int i = 0; i < 200; ++i) {
            NodeId src = static_cast<NodeId>(rng.below(64));
            NodeId dst = static_cast<NodeId>(rng.below(64));
            f.net->tryInject(makeUnicast(src, dst, i));
            if (i % 20 == 19)
                f.eq.run();
        }
        f.eq.run();
        std::vector<Tick> ticks;
        for (auto &ep : f.eps) {
            for (Tick t : ep->arrivalTicks)
                ticks.push_back(t);
        }
        return ticks;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Network, LargePacketsOccupyPortsLonger)
{
    // Two back-to-back big packets on the same path: the second is
    // delayed by serialization, not just header latency.
    NetFixture f(16);
    ASSERT_TRUE(f.net->tryInject(makeUnicast(3, 9, 0, 144)));
    ASSERT_TRUE(f.net->tryInject(makeUnicast(3, 9, 1, 144)));
    f.eq.run();
    ASSERT_EQ(f.eps[9]->arrivals.size(), 2u);
    Tick gap = f.eps[9]->arrivalTicks[1] - f.eps[9]->arrivalTicks[0];
    // occupancy = 40 + 144*0.5 = 112 ns per hop; the pipeline gap
    // must be at least that.
    EXPECT_GE(gap, 112u);
}

} // namespace
} // namespace cenju
