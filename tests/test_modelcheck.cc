/**
 * @file
 * Checking-subsystem tests: the exhaustive explorer (state counts,
 * clean closure on the shipped protocol, bug-injection detection),
 * trace serialization round-trips, counterexample replay through
 * DsmSystem, and regression tests from the home-queue audit
 * (EXPERIMENTS.md) — including the writeback/slave-ack output
 * ordering interlock.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/explorer.hh"
#include "core/dsm_system.hh"
#include "memory/address_map.hh"
#include "msgpass/msg_engine.hh"
#include "network/network.hh"
#include "node/dsm_node.hh"

namespace cenju
{
namespace
{

/** Minimal multi-node harness (mirrors test_protocol.cc's Sys). */
struct Sys
{
    explicit Sys(unsigned nodes, ProtocolConfig pc = {},
                 NetConfig nc = {})
    {
        nc.numNodes = nodes;
        net = std::make_unique<Network>(eq, nc);
        for (NodeId n = 0; n < nodes; ++n) {
            this->nodes.push_back(
                std::make_unique<DsmNode>(eq, *net, n, pc));
        }
    }

    std::uint64_t
    load(NodeId n, Addr a)
    {
        bool done = false;
        std::uint64_t v = 0;
        nodes[n]->master().load(a, [&](std::uint64_t x) {
            v = x;
            done = true;
        });
        while (!done && eq.runOne()) {
        }
        EXPECT_TRUE(done) << "load did not complete";
        return v;
    }

    void
    store(NodeId n, Addr a, std::uint64_t v)
    {
        bool done = false;
        nodes[n]->master().store(a, v, [&] { done = true; });
        while (!done && eq.runOne()) {
        }
        EXPECT_TRUE(done) << "store did not complete";
    }

    std::vector<DsmNode *>
    nodePtrs()
    {
        std::vector<DsmNode *> v;
        for (auto &n : nodes)
            v.push_back(n.get());
        return v;
    }

    EventQueue eq;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<DsmNode>> nodes;
};

/** Forwarding hook for staging interleavings from engine steps. */
struct TestHook : check::CheckHook
{
    std::function<void(check::StepKind, NodeId, Addr)> fn;

    void
    onStep(check::StepKind kind, NodeId at, Addr addr) override
    {
        if (fn)
            fn(kind, at, addr);
    }
};

TEST(Explorer, ReachesStatesTwoNodeOneBlock)
{
    check::ExplorerOptions opt;
    opt.cfg.nodes = 2;
    opt.cfg.blocks = 1;
    check::ExploreResult res = check::explore(opt);
    EXPECT_GT(res.statesVisited, 1u);
    EXPECT_GT(res.transitions, 0u);
    EXPECT_GT(res.hookSteps, 0u);
    EXPECT_TRUE(res.exhausted) << "2x1 space must close";
    EXPECT_TRUE(res.ok());
}

TEST(Explorer, ShippedProtocolCleanThreeNode)
{
    check::ExplorerOptions opt;
    opt.cfg.nodes = 3;
    opt.cfg.blocks = 1;
    check::ExploreResult res = check::explore(opt);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.ok())
        << (res.counterexamples.empty()
                ? std::string()
                : check::serializeTrace(
                      res.counterexamples[0].trace));
}

TEST(Explorer, NackProtocolClean)
{
    check::ExplorerOptions opt;
    opt.cfg.nodes = 2;
    opt.cfg.blocks = 1;
    opt.cfg.protocol = ProtocolKind::Nack;
    check::ExploreResult res = check::explore(opt);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.ok());
}

TEST(Explorer, SkipReservationBugDetected)
{
    check::ExplorerOptions opt;
    opt.cfg.nodes = 2;
    opt.cfg.blocks = 1;
    opt.cfg.bug = ProtoBug::SkipReservation;
    check::ExploreResult res = check::explore(opt);
    ASSERT_FALSE(res.ok())
        << "skipping the reservation bit must starve a request";

    const check::Counterexample &cex = res.counterexamples[0];
    bool starved = false, queue_inv = false;
    for (const check::Violation &v : cex.violations) {
        if (v.invariant == "liveness")
            starved = true;
        if (v.invariant == "reservation-queue")
            queue_inv = true;
    }
    EXPECT_TRUE(starved) << "a parked request must never complete";
    EXPECT_TRUE(queue_inv)
        << "the step-local queue invariant must fire too";
    EXPECT_FALSE(cex.stallDiagnosis.empty());

    // The counterexample replays: text round-trip, then re-run.
    std::string text = check::serializeTrace(cex.trace);
    check::Trace parsed;
    std::string err;
    ASSERT_TRUE(check::parseTrace(text, parsed, err)) << err;
    ASSERT_EQ(parsed.batches.size(), cex.trace.batches.size());
    check::ReplayReport rep = check::replayTrace(parsed);
    EXPECT_FALSE(rep.ok())
        << "replaying the trace must reproduce the violation";
    EXPECT_FALSE(rep.completed);
}

TEST(Explorer, DropSharerBugDetected)
{
    check::ExplorerOptions opt;
    opt.cfg.nodes = 3;
    opt.cfg.blocks = 1;
    opt.cfg.bug = ProtoBug::DropSharer;
    check::ExploreResult res = check::explore(opt);
    ASSERT_FALSE(res.ok())
        << "dropping a sharer must break the superset invariant";
    bool superset = false;
    for (const check::Violation &v :
         res.counterexamples[0].violations) {
        if (v.invariant == "dir-superset")
            superset = true;
    }
    EXPECT_TRUE(superset);
}

TEST(Trace, SerializeParseRoundTrip)
{
    check::Trace t;
    t.cfg.nodes = 3;
    t.cfg.blocks = 2;
    t.cfg.bug = ProtoBug::SkipReservation;
    t.batches.push_back({check::Op{check::OpKind::Load, 0, 1, 0}});
    t.batches.push_back(
        {check::Op{check::OpKind::Store, 1, 0, 7},
         check::Op{check::OpKind::Flush, 2, 0, 0}});

    check::Trace back;
    std::string err;
    ASSERT_TRUE(
        check::parseTrace(check::serializeTrace(t), back, err))
        << err;
    ASSERT_EQ(back.batches.size(), 2u);
    EXPECT_EQ(back.cfg.nodes, 3u);
    EXPECT_EQ(back.cfg.blocks, 2u);
    EXPECT_EQ(back.cfg.bug, ProtoBug::SkipReservation);
    EXPECT_EQ(back.batches[1].size(), 2u);
    EXPECT_EQ(back.batches[1][0].kind, check::OpKind::Store);
    EXPECT_EQ(back.batches[1][0].value, 7u);
    EXPECT_EQ(back.batches[1][1].kind, check::OpKind::Flush);
    EXPECT_EQ(back.batches[1][1].node, 2u);
}

TEST(Trace, ParseRejectsBadInput)
{
    check::Trace t;
    std::string err;
    EXPECT_FALSE(check::parseTrace("nodes 2\nbatch poke n0 b0\n",
                                   t, err));
    EXPECT_FALSE(check::parseTrace("nodes 2\nbatch load n5 b0\n",
                                   t, err));
    EXPECT_FALSE(check::parseTrace(
        "nodes 2\nbatch store n0 b0\n", t, err))
        << "a store without a serial must not parse";
    EXPECT_FALSE(check::parseTrace("nodes 2x\nbatch load n0 b0\n",
                                   t, err));
    EXPECT_NE(err.find("2x"), std::string::npos) << err;
    EXPECT_FALSE(check::parseTrace("nodes 2\nbatch load n0 b0x\n",
                                   t, err));
    EXPECT_NE(err.find("b0x"), std::string::npos) << err;
}

TEST(Replay, DsmSystemCleanTrace)
{
    check::Trace t;
    t.cfg.nodes = 2;
    t.cfg.blocks = 1;
    t.batches.push_back(
        {check::Op{check::OpKind::Store, 0, 0, 1}});
    t.batches.push_back(
        {check::Op{check::OpKind::Load, 1, 0, 0},
         check::Op{check::OpKind::Store, 0, 0, 2}});
    t.batches.push_back({check::Op{check::OpKind::Flush, 0, 0, 0}});

    SystemConfig sc;
    sc.numNodes = 2;
    // replayTrace demands the system match the trace header, and
    // traces pin their protocol — so must the replaying system.
    sc.proto.protocol = t.cfg.protocol;
    sc.proto.runtimeChecks = true;
    DsmSystem sys(sc);
    EXPECT_TRUE(sys.replayTrace(t));
}

TEST(ReplayDeathTest, DsmSystemPanicsOnInjectedBug)
{
    // Find a counterexample, then reproduce it through the full
    // DsmSystem replay path: the panicking checker must fire.
    check::ExplorerOptions opt;
    opt.cfg.nodes = 2;
    opt.cfg.blocks = 1;
    opt.cfg.bug = ProtoBug::SkipReservation;
    check::ExploreResult res = check::explore(opt);
    ASSERT_FALSE(res.ok());
    check::Trace trace = res.counterexamples[0].trace;

    EXPECT_DEATH(
        {
            SystemConfig sc;
            sc.numNodes = 2;
            sc.proto.protocol = trace.cfg.protocol;
            sc.proto.injectBug = ProtoBug::SkipReservation;
            sc.proto.runtimeChecks = true;
            DsmSystem sys(sc);
            sys.replayTrace(trace);
        },
        "invariant");
}

TEST(RuntimeChecker, CleanRunObservesSteps)
{
    Sys sys(3);
    check::RuntimeChecker ck(
        sys.nodePtrs(), check::RuntimeChecker::OnViolation::Collect);
    for (auto &n : sys.nodes)
        n->setCheckHook(&ck);
    sys.net->setCheckHook(&ck);

    Addr a = addr_map::makeShared(0, 0);
    sys.store(1, a, 11);
    EXPECT_EQ(sys.load(2, a), 11u);
    sys.store(2, a, 13);
    EXPECT_EQ(sys.load(0, a), 13u);

    EXPECT_GT(ck.steps(), 0u);
    ck.checkQuiescent();
    for (const check::Violation &v : ck.violations())
        ADD_FAILURE() << v.invariant << ": " << v.detail;
}

/**
 * Home-queue audit regression (EXPERIMENTS.md): racing same-block
 * requests go through the memory queue and every parked request is
 * served exactly once — nothing dropped, nothing duplicated — with
 * the runtime checker panicking on any queue/reservation violation.
 */
TEST(QueueAudit, RacingStoresAllServedOnce)
{
    // Queuing pinned: the test reads the requestsQueued counter.
    ProtocolConfig pc;
    pc.protocol = ProtocolKind::Queuing;
    Sys sys(4, pc);
    check::RuntimeChecker ck(sys.nodePtrs());
    for (auto &n : sys.nodes)
        n->setCheckHook(&ck);
    sys.net->setCheckHook(&ck);

    Addr a = addr_map::makeShared(0, 0);
    unsigned done = 0;
    for (NodeId n = 0; n < 4; ++n) {
        sys.nodes[n]->master().store(a, 100 + n,
                                     [&done] { ++done; });
    }
    sys.eq.run();
    EXPECT_EQ(done, 4u) << "a racing store was dropped";
    EXPECT_GE(sys.nodes[0]->home().requestsQueued.value(), 1u)
        << "the race must exercise the memory queue";
    EXPECT_TRUE(sys.nodes[0]->home().requestQueue().empty());
    ck.checkQuiescent();

    // The final value is the serially-last store in coherence
    // order; with a panicking checker attached, the load is also
    // invariant-clean.
    std::uint64_t v = sys.load(1, a);
    EXPECT_GE(v, 100u);
    EXPECT_LT(v, 104u);
}

/**
 * Writeback/slave-ack ordering regression (EXPERIMENTS.md finding
 * A4): when a node's injection queue is congested, its round-robin
 * output pump could let a slave ack overtake an older WriteBack for
 * the same block. The home then served the forwarded read from
 * stale memory. The per-address interlock in trySendFromSlave must
 * keep the WriteBack first.
 *
 * Staging (all at the instant home 0 dispatches the read):
 * node 1's injector is saturated with two jumbo user packets, a
 * small master request is parked ahead of the WriteBack (so the
 * round-robin pointer passes the master source at the critical
 * slot), and the dirty line is flushed. The forward then arrives,
 * misses, and the ack must not be emitted past the parked WB.
 */
TEST(QueueAudit, WritebackNotOvertakenBySlaveAck)
{
    NetConfig nc;
    nc.injectQueueCapacity = 1;
    Sys sys(2, {}, nc);
    for (auto &n : sys.nodes)
        n->setUserHandler([](PacketPtr) {});

    Addr a = addr_map::makeShared(0, 0);
    Addr b = addr_map::makeShared(0, blockBytes);
    sys.store(1, a, 7); // node 1 caches block a Modified
    sys.eq.run();

    check::RuntimeChecker ck(
        sys.nodePtrs(), check::RuntimeChecker::OnViolation::Collect);
    TestHook hook;
    bool staged = false;
    hook.fn = [&](check::StepKind kind, NodeId at, Addr addr) {
        ck.onStep(kind, at, addr);
        if (staged || kind != check::StepKind::HomeDispatch ||
            at != 0 || blockBase(addr) != blockBase(a)) {
            return;
        }
        staged = true;
        // Three jumbos: the third refills the injection queue right
        // after the master request drains, so the WriteBack's own
        // injection attempt fails and leaves the round-robin pointer
        // on the slave source for the next free slot.
        for (int i = 0; i < 3; ++i) {
            auto jumbo = std::make_unique<MsgPacket>();
            jumbo->src = 1;
            jumbo->dest = DestSpec::unicast(0);
            jumbo->sizeBytes = 1u << 16;
            sys.nodes[1]->sendUser(std::move(jumbo));
        }
        sys.nodes[1]->master().load(b, [](std::uint64_t) {});
        ASSERT_TRUE(sys.nodes[1]->master().flushBlock(a));
    };
    for (auto &n : sys.nodes)
        n->setCheckHook(&hook);
    sys.net->setCheckHook(&hook);

    std::uint64_t v = sys.load(0, a);
    EXPECT_TRUE(staged) << "the race was never staged";
    EXPECT_EQ(v, 7u)
        << "the home served stale memory: the slave ack overtook "
           "the WriteBack";
    sys.eq.run();
    ck.checkQuiescent();
    for (const check::Violation &viol : ck.violations())
        ADD_FAILURE() << viol.invariant << ": " << viol.detail;
}

} // namespace
} // namespace cenju
