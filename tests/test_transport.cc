/**
 * @file
 * Transport conformance suite: the contract every interconnect
 * backend must honor (src/transport/transport.hh), run against all
 * three backends — the multistage crossbar fabric, the ideal
 * zero-contention pipe, and the point-to-point direct transport.
 *
 * The backends are free to differ in *latency* (that contrast is
 * bench/fig10_store_latency's subject); what must not differ is the
 * delivery semantics the protocol stack depends on: per
 * (source, destination) ordering, exact multicast sets, gather
 * collapse to a single reply, and back-pressure that round-trips
 * through tryInject/injectSpaceAvailable and
 * reserveDelivery/deliveryRetry.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "directory/bit_pattern.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "transport/collectives.hh"
#include "transport/factory.hh"

namespace cenju
{
namespace
{

struct TestPacket : Packet
{
    int tag = 0;

    std::unique_ptr<Packet>
    clone() const override
    {
        return std::make_unique<TestPacket>(*this);
    }
};

int
tagOf(const Packet &p)
{
    return static_cast<const TestPacket &>(p).tag;
}

/** Endpoint that records deliveries, optionally bounded. */
class RecordingEndpoint : public Endpoint
{
  public:
    RecordingEndpoint(Transport &t, NodeId id,
                      unsigned capacity = 1u << 30)
        : _t(t), _id(id), _capacity(capacity)
    {
        t.attach(id, this);
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
        arrivalTicks.push_back(_t.eventQueue().now());
    }

    /** Consume one buffered packet, re-opening endpoint space. */
    void
    consume()
    {
        ASSERT_GT(_buffered, 0u);
        --_buffered;
        _t.deliveryRetry(_id);
    }

    std::vector<PacketPtr> arrivals;
    std::vector<Tick> arrivalTicks;

  private:
    Transport &_t;
    NodeId _id;
    unsigned _capacity;
    unsigned _reserved = 0;
    unsigned _buffered = 0;
};

PacketPtr
makeUnicast(NodeId src, NodeId dst, int tag = 0, unsigned size = 16)
{
    auto p = std::make_unique<TestPacket>();
    p->src = src;
    p->dest = DestSpec::unicast(dst);
    p->sizeBytes = size;
    p->tag = tag;
    return p;
}

struct Fixture
{
    explicit Fixture(TransportKind kind, unsigned nodes,
                     unsigned endpointCapacity = 1u << 30)
    {
        cfg.numNodes = nodes;
        t = makeTransport(kind, eq, cfg);
        for (NodeId n = 0; n < nodes; ++n)
            eps.push_back(std::make_unique<RecordingEndpoint>(
                *t, n, endpointCapacity));
    }

    /** Inject, draining the queue whenever it refuses. */
    void
    injectDraining(NodeId src, NodeId dst, int tag)
    {
        for (;;) {
            auto p = makeUnicast(src, dst, tag);
            if (t->tryInject(std::move(p)))
                return;
            eq.run();
        }
    }

    EventQueue eq;
    NetConfig cfg;
    std::unique_ptr<Transport> t;
    std::vector<std::unique_ptr<RecordingEndpoint>> eps;
};

/** The names stats() lists: counters, then sample statistics. */
std::vector<std::string>
statNames(const StatGroup &g)
{
    std::vector<std::string> names;
    for (const auto &[name, c] : g.counters())
        names.push_back(name);
    for (const auto &[name, s] : g.sampleStats())
        names.push_back(name);
    return names;
}

/** Counter @p name of @p g; a missing name fails the test. */
std::uint64_t
counterOf(const StatGroup &g, const std::string &name)
{
    for (const auto &[n, c] : g.counters()) {
        if (n == name)
            return c.value();
    }
    ADD_FAILURE() << "stats() lists no counter " << name;
    return 0;
}

class TransportConformance
    : public ::testing::TestWithParam<TransportKind>
{};

TEST_P(TransportConformance, ReportsItsKindAndSize)
{
    Fixture f(GetParam(), 16);
    EXPECT_STREQ(f.t->name(), nameOf(GetParam()));
    EXPECT_EQ(f.t->numNodes(), 16u);
    EXPECT_EQ(&f.t->eventQueue(), &f.eq);
}

TEST_P(TransportConformance, UnicastDeliversExactlyOnce)
{
    Fixture f(GetParam(), 16);
    ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9)));
    f.eq.run();
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_EQ(f.eps[n]->arrivals.size(), n == 9 ? 1u : 0u)
            << "node " << n;
    EXPECT_EQ(f.t->injectedCount(), 1u);
    EXPECT_EQ(f.t->deliveredCount(), 1u);
    EXPECT_GT(f.eps[9]->arrivalTicks[0], 0u);
}

TEST_P(TransportConformance, SelfRouteWorks)
{
    Fixture f(GetParam(), 16);
    ASSERT_TRUE(f.t->tryInject(makeUnicast(5, 5)));
    f.eq.run();
    EXPECT_EQ(f.eps[5]->arrivals.size(), 1u);
}

TEST_P(TransportConformance, PerSourceDestinationOrdering)
{
    Fixture f(GetParam(), 64);
    for (int i = 0; i < 20; ++i)
        f.injectDraining(7, 42, i);
    f.eq.run();
    auto &arr = f.eps[42]->arrivals;
    ASSERT_EQ(arr.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(tagOf(*arr[i]), i) << "position " << i;
}

TEST_P(TransportConformance, MulticastPointersDeliversExactSet)
{
    Fixture f(GetParam(), 64);
    auto p = std::make_unique<TestPacket>();
    p->src = 0;
    p->dest = DestSpec::pointers({5, 17, 33, 60});
    ASSERT_TRUE(f.t->tryInject(std::move(p)));
    f.eq.run();
    for (NodeId n = 0; n < 64; ++n) {
        bool target = n == 5 || n == 17 || n == 33 || n == 60;
        EXPECT_EQ(f.eps[n]->arrivals.size(), target ? 1u : 0u)
            << "node " << n;
    }
    EXPECT_EQ(f.t->deliveredCount(), 4u);
}

TEST_P(TransportConformance, MulticastPatternDeliversDecodedSet)
{
    Fixture f(GetParam(), 128);
    BitPattern pat;
    for (NodeId n : {3u, 64u, 67u, 100u})
        pat.add(n);
    NodeSet expect = pat.decode(128);
    auto p = std::make_unique<TestPacket>();
    p->src = 9;
    p->dest = DestSpec::pattern(pat);
    ASSERT_TRUE(f.t->tryInject(std::move(p)));
    f.eq.run();
    for (NodeId n = 0; n < 128; ++n)
        EXPECT_EQ(f.eps[n]->arrivals.size(),
                  expect.contains(n) ? 1u : 0u)
            << "node " << n;
}

TEST_P(TransportConformance, GatherCollapsesToExactlyOneReply)
{
    Fixture f(GetParam(), 16);
    const NodeId home = 6;
    auto group = std::make_shared<NodeSet>(16u);
    for (NodeId m : {1u, 4u, 9u, 12u, 15u})
        group->insert(m);
    group->forEach([&](NodeId m) {
        auto p = std::make_unique<TestPacket>();
        p->src = m;
        p->dest = DestSpec::unicast(home);
        p->gathered = true;
        p->gatherId = static_cast<std::uint16_t>(home);
        p->gatherGroup = group;
        ASSERT_TRUE(f.t->tryInject(std::move(p)));
    });
    f.eq.run();
    EXPECT_EQ(f.eps[home]->arrivals.size(), 1u);
    // The merged reply is still a gathered packet of the group.
    ASSERT_FALSE(f.eps[home]->arrivals.empty());
    EXPECT_TRUE(f.eps[home]->arrivals[0]->gathered);
    EXPECT_EQ(f.eps[home]->arrivals[0]->gatherId,
              static_cast<std::uint16_t>(home));
}

TEST_P(TransportConformance, InjectBackpressureRoundTrips)
{
    Fixture f(GetParam(), 16);
    EXPECT_GT(f.t->injectCapacity(0), 0u);
    unsigned accepted = 0;
    for (int i = 0; i < 64; ++i) {
        if (f.t->tryInject(makeUnicast(0, 1, i)))
            ++accepted;
    }
    // A finite injection queue must refuse eventually...
    EXPECT_LT(accepted, 64u);
    EXPECT_GT(f.t->injectBacklog(0), 0u);
    f.eq.run();
    // ...while losing none of what it accepted, in order.
    ASSERT_EQ(f.eps[1]->arrivals.size(), accepted);
    for (unsigned i = 0; i < accepted; ++i)
        EXPECT_EQ(tagOf(*f.eps[1]->arrivals[i]), int(i));
    EXPECT_EQ(f.t->injectBacklog(0), 0u);
    // And the queue must be usable again after draining.
    EXPECT_TRUE(f.t->tryInject(makeUnicast(0, 1, 1000)));
    f.eq.run();
    EXPECT_EQ(f.eps[1]->arrivals.size(), accepted + 1u);
}

TEST_P(TransportConformance, DeliveryBackpressureRoundTrips)
{
    // Node 9 accepts one packet at a time; the transport must park
    // refused deliveries and resume on deliveryRetry() without loss
    // or reordering.
    Fixture f(GetParam(), 16, /*endpointCapacity=*/1);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9, i)));
    std::size_t consumed = 0;
    while (consumed < 4) {
        f.eq.run();
        ASSERT_GT(f.eps[9]->arrivals.size(), consumed)
            << "transport stalled with " << consumed
            << " of 4 delivered";
        f.eps[9]->consume();
        ++consumed;
    }
    f.eq.run();
    ASSERT_EQ(f.eps[9]->arrivals.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(tagOf(*f.eps[9]->arrivals[i]), i);
}

TEST_P(TransportConformance, CountsStayConsistentUnderLoad)
{
    Fixture f(GetParam(), 64);
    unsigned sent = 0;
    for (NodeId src = 0; src < 64; ++src) {
        if (f.t->tryInject(makeUnicast(src, (src * 7 + 1) % 64)))
            ++sent;
    }
    f.eq.run();
    EXPECT_EQ(f.t->injectedCount(), sent);
    EXPECT_EQ(f.t->deliveredCount(), sent);
    std::size_t got = 0;
    for (auto &ep : f.eps)
        got += ep->arrivals.size();
    EXPECT_EQ(got, sent);

    // Every backend lists the same names by name (perfbench reads
    // all but injected, delivered and combine_decombined), and the
    // view agrees with the count readers.
    StatGroup g = f.t->stats();
    EXPECT_EQ(statNames(g),
              (std::vector<std::string>{
                  "injected", "delivered", "multicast_copies",
                  "gather_absorbed", "gather_forwarded",
                  "combine_merged", "combine_skipped",
                  "combine_decombined", "latency_ns"}));
    EXPECT_EQ(counterOf(g, "injected"), f.t->injectedCount());
    EXPECT_EQ(counterOf(g, "delivered"), f.t->deliveredCount());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(TransportKind::Multistage,
                      TransportKind::Ideal, TransportKind::Direct),
    [](const ::testing::TestParamInfo<TransportKind> &info) {
        return nameOf(info.param);
    });

// --- shared collective steps (transport/collectives.hh) ---------------

TEST(GatherCountdown, MissingGroupPanics)
{
    GatherCountdown gathers;
    TestPacket p;
    p.gathered = true;
    EXPECT_DEATH(gathers.arrive(p), "without a gather group");
}

TEST(GatherCountdown, EmptyGroupPanics)
{
    GatherCountdown gathers;
    TestPacket p;
    p.gathered = true;
    p.gatherGroup = std::make_shared<NodeSet>(16u);
    EXPECT_DEATH(gathers.arrive(p), "gather with an empty group");
}

} // namespace
} // namespace cenju
