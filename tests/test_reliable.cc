/**
 * @file
 * Reliability-decorator suite (src/reliable/): the exactly-once,
 * in-order contract over every inner backend, and recovery from the
 * three illegal fault classes — drop, duplicate, corrupt.
 *
 * The unit half drives a ReliableTransport directly with a scripted
 * loss hook and asserts deterministic simulated-time behavior:
 * retransmit timing, exponential backoff accounting, dedup, checksum
 * rejection, and the retry-budget link-dead escalation. The property
 * half runs whole stress workloads (every protocol and atomic
 * message type) with every packet duplicated and checks the
 * protocol state machine never notices. The randomized section
 * honours CENJU_FUZZ_SEED:
 *
 *   CENJU_FUZZ_SEED=12345 ./build/tests/test_reliable
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fault/hooks.hh"
#include "fault/stress.hh"
#include "reliable/reliable_transport.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
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

/** Endpoint that records deliveries and their times. */
class RecordingEndpoint : public Endpoint
{
  public:
    RecordingEndpoint(Transport &t, NodeId id) : _t(t)
    {
        t.attach(id, this);
    }

    bool reserveDelivery(const Packet &) override { return true; }

    void
    deliver(PacketPtr pkt) override
    {
        arrivals.push_back(std::move(pkt));
        arrivalTicks.push_back(_t.eventQueue().now());
    }

    std::vector<PacketPtr> arrivals;
    std::vector<Tick> arrivalTicks;

  private:
    Transport &_t;
};

/**
 * Scripted loss oracle: a queue of verdicts consumed one per
 * arriving data packet (None once exhausted), or drop-everything
 * mode. All the legal-fault queries answer "no fault".
 */
class LossScript : public fault::FaultHook
{
  public:
    std::deque<fault::LossKind> script;
    bool dropAll = false;

    unsigned
    injectQueueCapacity(NodeId, unsigned base) override
    {
        return base;
    }
    unsigned
    xbCapacity(unsigned, unsigned, unsigned base) override
    {
        return base;
    }
    bool
    switchOutputHeld(unsigned, unsigned, unsigned) override
    {
        return false;
    }
    bool deliveryHeld(NodeId) override { return false; }

    fault::LossKind
    lossAction(NodeId) override
    {
        if (dropAll)
            return fault::LossKind::Drop;
        if (script.empty())
            return fault::LossKind::None;
        fault::LossKind k = script.front();
        script.pop_front();
        return k;
    }
};

PacketPtr
makeUnicast(NodeId src, NodeId dst, int tag = 0)
{
    auto p = std::make_unique<TestPacket>();
    p->src = src;
    p->dest = DestSpec::unicast(dst);
    p->tag = tag;
    return p;
}

struct Fixture
{
    explicit Fixture(TransportKind kind, unsigned nodes)
    {
        cfg.numNodes = nodes;
        t = std::make_unique<ReliableTransport>(
            makeTransport(kind, eq, cfg));
        for (NodeId n = 0; n < nodes; ++n)
            eps.push_back(
                std::make_unique<RecordingEndpoint>(*t, n));
    }

    ReliableTransport &rel() { return *t; }

    /** Inject, draining the queue whenever it refuses. */
    void
    injectDraining(NodeId src, NodeId dst, int tag)
    {
        for (;;) {
            if (t->tryInject(makeUnicast(src, dst, tag)))
                return;
            eq.run();
        }
    }

    EventQueue eq;
    NetConfig cfg;
    std::unique_ptr<ReliableTransport> t;
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

class ReliableOverBackend
    : public ::testing::TestWithParam<TransportKind>
{};

TEST_P(ReliableOverBackend, CleanUnicastDeliversOnceNoRetransmit)
{
    Fixture f(GetParam(), 16);
    EXPECT_STREQ(f.rel().name(), "reliable");
    EXPECT_EQ(f.rel().numNodes(), 16u);
    ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9, 7)));
    f.eq.run();
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_EQ(f.eps[n]->arrivals.size(), n == 9 ? 1u : 0u)
            << "node " << n;
    ASSERT_EQ(f.eps[9]->arrivals.size(), 1u);
    EXPECT_EQ(tagOf(*f.eps[9]->arrivals[0]), 7);
    EXPECT_EQ(f.eps[9]->arrivals[0]->relSeq, 1u);
    // The clean path must never time out: zero spurious recovery.
    EXPECT_EQ(f.rel().retransmits.value(), 0u);
    EXPECT_EQ(f.rel().dupDiscards.value(), 0u);
    EXPECT_EQ(f.rel().backoffTicks.value(), 0u);
    EXPECT_EQ(f.rel().deliveredCount(), 1u);

    // The by-name view lists the inner backend's names, which
    // TransportConformance pins on every backend, with this layer's
    // exactly-once counts.
    StatGroup g = f.rel().stats();
    EXPECT_EQ(statNames(g), statNames(f.rel().inner().stats()));
    EXPECT_EQ(counterOf(g, "injected"), f.rel().injectedCount());
    EXPECT_EQ(counterOf(g, "delivered"), f.rel().deliveredCount());
}

TEST_P(ReliableOverBackend, PerSourceDestinationOrderingHolds)
{
    Fixture f(GetParam(), 16);
    for (int i = 0; i < 20; ++i)
        f.injectDraining(7, 12, i);
    f.eq.run();
    auto &arr = f.eps[12]->arrivals;
    ASSERT_EQ(arr.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(tagOf(*arr[i]), i) << "position " << i;
        EXPECT_EQ(arr[i]->relSeq, unsigned(i + 1));
    }
}

TEST_P(ReliableOverBackend, MulticastFansOutToUnicasts)
{
    Fixture f(GetParam(), 64);
    auto p = std::make_unique<TestPacket>();
    p->src = 0;
    p->dest = DestSpec::pointers({5, 17, 33, 60});
    ASSERT_TRUE(f.t->tryInject(std::move(p)));
    f.eq.run();
    for (NodeId n = 0; n < 64; ++n) {
        bool target = n == 5 || n == 17 || n == 33 || n == 60;
        ASSERT_EQ(f.eps[n]->arrivals.size(), target ? 1u : 0u)
            << "node " << n;
        if (target) {
            // Each member saw a sequenced per-pair unicast clone.
            EXPECT_EQ(f.eps[n]->arrivals[0]->relSeq, 1u);
            EXPECT_EQ(f.eps[n]->arrivals[0]->dest.unicastDest(), n);
        }
    }
    // The fabric made no copies; the decorator made three and
    // reports them.
    EXPECT_EQ(counterOf(f.rel().stats(), "multicast_copies"), 3u);
}

TEST_P(ReliableOverBackend, GatherMergesInSoftware)
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
    ASSERT_EQ(f.eps[home]->arrivals.size(), 1u);
    // The merged reply is still a gathered packet of the group.
    EXPECT_TRUE(f.eps[home]->arrivals[0]->gathered);
    EXPECT_EQ(f.eps[home]->arrivals[0]->gatherId,
              static_cast<std::uint16_t>(home));
    // Four of the five replies merged away at the receiver.
    StatGroup g = f.rel().stats();
    EXPECT_EQ(counterOf(g, "gather_absorbed"), 4u);
    EXPECT_EQ(counterOf(g, "gather_forwarded"), 1u);
}

TEST_P(ReliableOverBackend, DuplicateEveryPacketIsIdempotent)
{
    Fixture f(GetParam(), 16);
    LossScript hook;
    for (int i = 0; i < 64; ++i)
        hook.script.push_back(fault::LossKind::Duplicate);
    f.rel().setFaultHook(&hook);
    for (int i = 0; i < 10; ++i)
        f.injectDraining(2, 11, i);
    f.eq.run();
    auto &arr = f.eps[11]->arrivals;
    ASSERT_EQ(arr.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(tagOf(*arr[i]), i) << "position " << i;
    EXPECT_GT(f.rel().dupDiscards.value(), 0u);
    EXPECT_EQ(f.rel().deliveredCount(), 10u);
    f.rel().setFaultHook(nullptr);
}

TEST_P(ReliableOverBackend, DropRecoversWithDeterministicBackoff)
{
    // Measure the clean arrival time first, then replay with the
    // first two copies dropped: recovery must land exactly
    // rtoBase + 2*rtoBase later (6000-tick timeout, then a doubled
    // 12000-tick one), with the backoff counter telling the same
    // story.
    Tick cleanTick = 0;
    {
        Fixture f(GetParam(), 16);
        ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9)));
        f.eq.run();
        ASSERT_EQ(f.eps[9]->arrivalTicks.size(), 1u);
        cleanTick = f.eps[9]->arrivalTicks[0];
    }
    Fixture f(GetParam(), 16);
    LossScript hook;
    hook.script = {fault::LossKind::Drop, fault::LossKind::Drop};
    f.rel().setFaultHook(&hook);
    ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9)));
    f.eq.run();
    ASSERT_EQ(f.eps[9]->arrivals.size(), 1u);
    EXPECT_EQ(f.eps[9]->arrivalTicks[0],
              cleanTick + 3 * ReliableTransport::rtoBase);
    EXPECT_EQ(f.rel().retransmits.value(), 2u);
    EXPECT_EQ(f.rel().faultDrops.value(), 2u);
    EXPECT_EQ(f.rel().backoffTicks.value(),
              3 * ReliableTransport::rtoBase);
    EXPECT_EQ(f.rel().linksDead.value(), 0u);
    f.rel().setFaultHook(nullptr);
}

TEST_P(ReliableOverBackend, CorruptionIsDetectedAndRetransmitted)
{
    Fixture f(GetParam(), 16);
    LossScript hook;
    hook.script = {fault::LossKind::Corrupt};
    f.rel().setFaultHook(&hook);
    ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9, 42)));
    f.eq.run();
    ASSERT_EQ(f.eps[9]->arrivals.size(), 1u);
    EXPECT_EQ(tagOf(*f.eps[9]->arrivals[0]), 42);
    // The damaged copy was refused by checksum (never delivered,
    // never acked) and the timeout refetched it.
    EXPECT_EQ(f.rel().checksumRejects.value(), 1u);
    EXPECT_EQ(f.rel().retransmits.value(), 1u);
    EXPECT_EQ(f.rel().deliveredCount(), 1u);
    f.rel().setFaultHook(nullptr);
}

TEST_P(ReliableOverBackend, RetryBudgetEscalatesToLinkDead)
{
    Fixture f(GetParam(), 16);
    LossScript hook;
    hook.dropAll = true;
    f.rel().setFaultHook(&hook);
    NodeId deadSrc = invalidNode, deadDst = invalidNode;
    f.rel().setLinkDeadHandler(
        [&deadSrc, &deadDst](NodeId s, NodeId d) {
            deadSrc = s;
            deadDst = d;
        });
    ASSERT_TRUE(f.t->tryInject(makeUnicast(3, 9)));
    // Must terminate (no livelock): the budget bounds retransmission.
    f.eq.run();
    EXPECT_EQ(deadSrc, 3u);
    EXPECT_EQ(deadDst, 9u);
    EXPECT_EQ(f.rel().linksDead.value(), 1u);
    EXPECT_EQ(f.rel().retransmits.value(), ReliableTransport::retryBudget);
    EXPECT_EQ(f.eps[9]->arrivals.size(), 0u);
    f.rel().setFaultHook(nullptr);
}

TEST_P(ReliableOverBackend, LinkDeadWithoutHandlerIsFatal)
{
    EXPECT_DEATH(
        {
            Fixture f(GetParam(), 16);
            LossScript hook;
            hook.dropAll = true;
            f.rel().setFaultHook(&hook);
            f.t->tryInject(makeUnicast(3, 9));
            f.eq.run();
        },
        "link 3->9 dead");
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReliableOverBackend,
    ::testing::Values(TransportKind::Multistage,
                      TransportKind::Ideal, TransportKind::Direct),
    [](const ::testing::TestParamInfo<TransportKind> &info) {
        return nameOf(info.param);
    });

TEST(ReliableChecksum, CoversEveryNormalizedHeaderField)
{
    TestPacket p;
    p.src = 3;
    p.dest = DestSpec::unicast(9);
    p.relSeq = 5;
    std::uint32_t base = ReliableTransport::headerSum(p);
    TestPacket q = p;
    q.relSeq = 6;
    EXPECT_NE(ReliableTransport::headerSum(q), base);
    q = p;
    q.src = 4;
    EXPECT_NE(ReliableTransport::headerSum(q), base);
    q = p;
    q.combineOperand = 1;
    EXPECT_NE(ReliableTransport::headerSum(q), base);
    // Fields the inner backend rewrites must NOT affect the sum.
    q = p;
    q.packetId = 777;
    q.injectTick = 12345;
    EXPECT_EQ(ReliableTransport::headerSum(q), base);
}

// ---------------------------------------------------------------
// Property half: whole stress workloads with every arrival
// duplicated. Each pattern exercises a different slice of the
// protocol's message vocabulary (reads, upgrades, writebacks,
// invalidations, barrier gathers, combinable atomics); duplicate
// delivery of any of them must be absorbed by the dedup window
// without a single invariant violation.
// ---------------------------------------------------------------

namespace
{

fault::StressCase
dupEverythingCase(std::uint64_t seed, StressPattern pattern)
{
    fault::StressOptions opts;
    opts.patternFixed = true;
    opts.pattern = pattern;
    fault::StressCase c = fault::makeStressCase(seed, opts);
    c.reliability = ReliabilityKind::E2e;
    for (unsigned n = 0; n < c.nodes; ++n) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::DupMsg;
        e.start = 0;
        e.duration = Tick(1) << 40; // the whole run
        e.node = n;
        e.amount = 1; // duplicate every arriving packet
        c.plan.events.push_back(e);
    }
    return c;
}

void
runDupIdempotence(std::uint64_t seed, StressPattern pattern)
{
    SCOPED_TRACE(std::string("CENJU_FUZZ_SEED=") +
                 std::to_string(seed) + " pattern=" +
                 nameOf(pattern));
    fault::StressCase c = dupEverythingCase(seed, pattern);
    fault::StressResult r = fault::runStressCase(c);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.linkDead);
    EXPECT_TRUE(r.violations.empty())
        << r.violations.size() << " violations, first: "
        << (r.violations.empty() ? ""
                                 : r.violations[0].detail.c_str());
    EXPECT_GT(r.dupDiscards, 0u);

    if (pattern == StressPattern::ProducerConsumer) {
        // Deterministic finals: the all-dup run must land on memory
        // bit-identical to the undisturbed run of the same seed.
        fault::StressCase clean = c;
        clean.plan.events.erase(
            std::remove_if(clean.plan.events.begin(),
                           clean.plan.events.end(),
                           [](const fault::FaultEvent &e) {
                               return fault::isLossFault(e.kind);
                           }),
            clean.plan.events.end());
        fault::StressResult rc = fault::runStressCase(clean);
        ASSERT_TRUE(rc.completed);
        EXPECT_EQ(r.memFingerprint, rc.memFingerprint);
    }
}

} // namespace

TEST(ReliableDupProperty, EveryMessageTypeIsIdempotent)
{
    const StressPattern patterns[] = {
        StressPattern::SharingHeavy,
        StressPattern::Migratory,
        StressPattern::ProducerConsumer,
        StressPattern::BarrierChurn,
        StressPattern::HotSpot, // combinable atomics
    };
    if (const char *env = std::getenv("CENJU_FUZZ_SEED")) {
        std::uint64_t seed = std::strtoull(env, nullptr, 0);
        for (StressPattern p : patterns) {
            runDupIdempotence(seed, p);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        return;
    }
    for (StressPattern p : patterns) {
        runDupIdempotence(31ull, p);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace cenju
