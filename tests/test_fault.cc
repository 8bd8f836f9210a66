/**
 * @file
 * Fault-injection stress harness self-tests: plan and reproducer
 * serialization round-trips, bit-identical seed replay, soundness
 * (a correct protocol survives any plan), and the mutation check
 * that the harness catches both injected protocol bugs and shrinks
 * them to replayable minimal reproducers.
 */

#include <gtest/gtest.h>

#include "fault/injector.hh"
#include "fault/stress.hh"
#include "sim/rng.hh"

namespace cenju::fault
{
namespace
{

TEST(RngSplit, StreamsAreIndependentAndStable)
{
    Rng root(42);
    Rng a = root.split(1);
    Rng b = root.split(2);
    Rng a2 = root.split(1);
    std::uint64_t va = a.next();
    EXPECT_NE(va, b.next());       // distinct labels diverge
    EXPECT_EQ(va, a2.next());      // same label reproduces
    EXPECT_EQ(root.split(1).next(),
              Rng(42).split(1).next()); // split does not advance
}

TEST(FaultPlan, EventSerializationRoundTrips)
{
    Rng rng(7);
    PlanShape shape;
    FaultPlan plan = randomPlan(rng, shape);
    ASSERT_GE(plan.events.size(), shape.minEvents);
    ASSERT_LE(plan.events.size(), shape.maxEvents);
    for (const FaultEvent &e : plan.events) {
        FaultEvent back;
        std::string err;
        ASSERT_TRUE(
            parseFaultEvent(serializeFaultEvent(e), back, err))
            << err;
        EXPECT_EQ(back.kind, e.kind);
        EXPECT_EQ(back.start, e.start);
        EXPECT_EQ(back.duration, e.duration);
        EXPECT_EQ(back.node, e.node);
        EXPECT_EQ(back.stage, e.stage);
        EXPECT_EQ(back.row, e.row);
        EXPECT_EQ(back.port, e.port);
        EXPECT_EQ(back.amount, e.amount);
    }
}

TEST(StressCaseIo, ReproducerRoundTrips)
{
    for (std::uint64_t seed : {1ull, 9ull, 123ull}) {
        StressCase c = makeStressCase(seed, StressOptions{});
        StressCase back;
        std::string err;
        ASSERT_TRUE(parseCase(serializeCase(c), back, err)) << err;
        EXPECT_EQ(back.nodes, c.nodes);
        EXPECT_EQ(back.xbCapacity, c.xbCapacity);
        EXPECT_EQ(back.bug, c.bug);
        EXPECT_EQ(back.workload.pattern, c.workload.pattern);
        EXPECT_EQ(back.workload.blocks, c.workload.blocks);
        EXPECT_EQ(back.workload.opsPerNode, c.workload.opsPerNode);
        EXPECT_EQ(back.workload.rounds, c.workload.rounds);
        EXPECT_EQ(back.workload.seed, c.workload.seed);
        ASSERT_EQ(back.plan.events.size(), c.plan.events.size());
        // Re-serializing must reproduce the identical text.
        EXPECT_EQ(serializeCase(back), serializeCase(c));
    }
    StressCase out;
    std::string err;
    EXPECT_FALSE(parseCase("not a reproducer\n", out, err));
    EXPECT_FALSE(parseCase("stresscase v1\nnodes 4\n", out, err))
        << "missing end line must be rejected";
}

TEST(StressRun, ReplayIsBitIdentical)
{
    StressCase c = makeStressCase(3, StressOptions{});
    StressResult a = runStressCase(c);
    StressResult b = runStressCase(c);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.completed, b.completed);
}

TEST(StressRun, FaultWindowsPerturbTheInterleaving)
{
    // The same workload with and without its fault plan must
    // observe different step interleavings for at least one of a
    // handful of seeds (faults are real, not no-ops).
    bool differed = false;
    for (std::uint64_t seed = 1; seed <= 5 && !differed; ++seed) {
        StressCase c = makeStressCase(seed, StressOptions{});
        StressCase bare = c;
        bare.plan.events.clear();
        differed = runStressCase(c).digest !=
                   runStressCase(bare).digest;
    }
    EXPECT_TRUE(differed);
}

TEST(StressRun, CorrectProtocolSurvivesFaults)
{
    // Soundness: every perturbation is legal, so the unmodified
    // protocol must complete every workload with zero violations.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        StressCase c = makeStressCase(seed, StressOptions{});
        StressResult r = runStressCase(c);
        EXPECT_TRUE(r.completed) << "seed " << seed << ":\n"
                                 << r.stallDiagnosis;
        EXPECT_TRUE(r.violations.empty())
            << "seed " << seed << ": "
            << r.violations.front().invariant << ": "
            << r.violations.front().detail;
    }
}

/** Sweep seeds until @p bug is caught; shrink and revalidate. */
void
expectCaughtAndShrinkable(ProtoBug bug)
{
    StressOptions opts;
    opts.bug = bug;
    constexpr std::uint64_t seedBudget = 20;
    for (std::uint64_t seed = 1; seed <= seedBudget; ++seed) {
        StressCase c = makeStressCase(seed, opts);
        StressResult r = runStressCase(c);
        if (!r.failed())
            continue;

        ShrinkStats st;
        StressCase minimal =
            shrinkCase(c, defaultEventBudget, 200, &st);
        EXPECT_GT(st.runs, 0u);
        EXPECT_LE(minimal.nodes, c.nodes);
        EXPECT_LE(minimal.plan.events.size(),
                  c.plan.events.size());
        StressResult mr = runStressCase(minimal);
        EXPECT_TRUE(mr.failed())
            << "shrunk case no longer fails";

        // The serialized reproducer replays to the same failure.
        StressCase replayed;
        std::string err;
        ASSERT_TRUE(
            parseCase(serializeCase(minimal), replayed, err))
            << err;
        StressResult rr = runStressCase(replayed);
        EXPECT_TRUE(rr.failed());
        EXPECT_EQ(rr.digest, mr.digest);
        return;
    }
    FAIL() << nameOf(bug) << " not caught within "
           << seedBudget << " seeds";
}

TEST(StressRun, CatchesSkipReservationMutation)
{
    expectCaughtAndShrinkable(ProtoBug::SkipReservation);
}

TEST(StressRun, CatchesDropSharerMutation)
{
    expectCaughtAndShrinkable(ProtoBug::DropSharer);
}

TEST(StressRun, PlansClampToSmallerSystems)
{
    // A plan generated at 16 nodes must stay valid when the node
    // count shrinks underneath it (the shrinker relies on this).
    StressCase c = makeStressCase(11, StressOptions{});
    c.nodes = 2;
    StressResult r = runStressCase(c);
    EXPECT_TRUE(r.completed) << r.stallDiagnosis;
    EXPECT_TRUE(r.violations.empty());
}

TEST(LossPlan, DrawsOnlyLossKindsFromItsOwnStream)
{
    Rng rng(7);
    PlanShape shape;
    FaultPlan plan = randomLossPlan(rng, shape);
    ASSERT_GE(plan.events.size(), shape.minEvents);
    for (const FaultEvent &e : plan.events) {
        EXPECT_TRUE(isLossFault(e.kind));
        EXPECT_GE(e.amount, 1u); // the loss period
        EXPECT_LE(e.amount, 4u);
    }
    EXPECT_TRUE(planHasLossFaults(plan));
    EXPECT_FALSE(planHasLossFaults(randomPlan(rng, shape)));
    // The legal draw range must never include a loss kind (that
    // shift would invalidate every committed golden digest).
    EXPECT_FALSE(isLossFault(static_cast<FaultKind>(
        numFaultKinds - 1)));
    EXPECT_TRUE(isLossFault(FaultKind::DropMsg));
    EXPECT_TRUE(isLossFault(FaultKind::DupMsg));
    EXPECT_TRUE(isLossFault(FaultKind::CorruptPayload));
}

TEST(StressCaseIo, DefaultCaseStillSerializesAsV1)
{
    // Committed reproducers and the sweep goldens depend on the v1
    // byte format; only cases that actually use the reliability
    // layer may switch to v2.
    StressCase c = makeStressCase(3, StressOptions{});
    std::string text = serializeCase(c);
    EXPECT_EQ(text.rfind("stresscase v1\n", 0), 0u) << text;
    EXPECT_EQ(text.find("reliability"), std::string::npos);
}

TEST(StressCaseIo, LossyCaseRoundTripsAsV2)
{
    StressOptions opts;
    opts.lossy = true;
    StressCase c = makeStressCase(3, opts);
    ASSERT_EQ(c.reliability, ReliabilityKind::E2e);
    ASSERT_TRUE(planHasLossFaults(c.plan));
    std::string text = serializeCase(c);
    EXPECT_EQ(text.rfind("stresscase v2\n", 0), 0u) << text;
    EXPECT_NE(text.find("reliability e2e\n"), std::string::npos);
    StressCase back;
    std::string err;
    ASSERT_TRUE(parseCase(text, back, err)) << err;
    EXPECT_EQ(back.reliability, ReliabilityKind::E2e);
    EXPECT_EQ(back.plan.events.size(), c.plan.events.size());
    EXPECT_EQ(serializeCase(back), text);
}

TEST(StressCaseIo, UnknownSchemaVersionIsRejectedLoudly)
{
    StressCase out;
    std::string err;
    EXPECT_FALSE(parseCase("stresscase v3\nnodes 4\nend\n", out,
                           err));
    // The error must say which versions this binary understands.
    EXPECT_NE(err.find("v1"), std::string::npos) << err;
    EXPECT_NE(err.find("v2"), std::string::npos) << err;
    EXPECT_NE(err.find("v3"), std::string::npos) << err;
}

TEST(StressCaseIo, V1RejectsLossFaultsNamingTheLine)
{
    std::string text = "stresscase v1\n"
                       "nodes 4\n"
                       "blocks 2\n"
                       "fault drop-msg at 100 dur 50 node 1 "
                       "amount 2\n"
                       "end\n";
    StressCase out;
    std::string err;
    EXPECT_FALSE(parseCase(text, out, err));
    EXPECT_NE(err.find("drop-msg"), std::string::npos) << err;
    EXPECT_FALSE(parseCase("stresscase v1\nreliability e2e\nend\n",
                           out, err));
    EXPECT_NE(err.find("reliability"), std::string::npos) << err;
}

TEST(StressCaseIo, LossFaultsWithoutReliabilityAreInconsistent)
{
    std::string text = "stresscase v2\n"
                       "nodes 4\n"
                       "blocks 2\n"
                       "reliability off\n"
                       "fault corrupt-payload at 100 dur 50 node 1 "
                       "amount 2\n"
                       "end\n";
    StressCase out;
    std::string err;
    EXPECT_FALSE(parseCase(text, out, err));
    EXPECT_NE(err.find("loss faults"), std::string::npos) << err;
}

TEST(StressCaseIo, ReliabilityKeyAppliesAndValidates)
{
    StressCase c;
    std::string err;
    ASSERT_TRUE(applyCaseKey(c, "reliability", "e2e", err)) << err;
    EXPECT_EQ(c.reliability, ReliabilityKind::E2e);
    ASSERT_TRUE(applyCaseKey(c, "reliability", "off", err)) << err;
    EXPECT_EQ(c.reliability, ReliabilityKind::Off);
    EXPECT_FALSE(applyCaseKey(c, "reliability", "tcp", err));
    EXPECT_NE(err.find("tcp"), std::string::npos);
}

TEST(StressCaseIo, MalformedNumbersAreRejected)
{
    StressCase out;
    std::string err;
    for (const char *nodes : {"abc", "16x", "-4"}) {
        EXPECT_FALSE(parseCase(std::string("stresscase v1\nnodes ") +
                                   nodes + "\nend\n",
                               out, err))
            << "nodes '" << nodes << "'";
    }
    EXPECT_FALSE(parseCase("stresscase v1\nnodes 4\nfault "
                           "home-stall at -1 dur 5 node 0\nend\n",
                           out, err));
    StressCase c;
    EXPECT_FALSE(applyCaseKey(c, "ops", "4x", err));
    EXPECT_NE(err.find("ops"), std::string::npos) << err;
    EXPECT_FALSE(applyCaseKey(c, "xbcap", "4294967296", err))
        << "a value past the field's width must not wrap";
    ASSERT_TRUE(applyCaseKey(c, "ops", "4", err)) << err;
    EXPECT_EQ(c.workload.opsPerNode, 4u);
}

TEST(LossPlanRejection, BareBackendRefusesLossFaultsAtArmTime)
{
    // The injector must reject an illegal plan before the run
    // starts, naming the offending event, unless the reliability
    // decorator is on.
    EXPECT_DEATH(
        {
            StressOptions opts;
            opts.lossy = true;
            StressCase c = makeStressCase(5, opts);
            c.reliability = ReliabilityKind::Off;
            runStressCase(c);
        },
        "illegal fault");
}

TEST(LossyOracle, SeededLossyRunMatchesFaultFreeFinals)
{
    // The tentpole oracle in miniature (tools/stress --lossy runs
    // it at sweep scale): a lossy run's final memory must be
    // bit-identical to the fault-free run of the same seed.
    StressOptions lossy;
    lossy.lossy = true;
    lossy.patternFixed = true;
    lossy.pattern = StressPattern::ProducerConsumer;
    StressOptions clean = lossy;
    clean.lossy = false;
    clean.reliability = ReliabilityKind::E2e;
    for (std::uint64_t seed : {2ull, 17ull, 40ull}) {
        StressCase cl = makeStressCase(seed, lossy);
        StressCase cb = makeStressCase(seed, clean);
        StressResult rl = runStressCase(cl);
        StressResult rb = runStressCase(cb);
        ASSERT_TRUE(rl.completed) << rl.stallDiagnosis;
        ASSERT_TRUE(rb.completed) << rb.stallDiagnosis;
        EXPECT_TRUE(rl.violations.empty());
        EXPECT_EQ(rl.memFingerprint, rb.memFingerprint)
            << "seed " << seed;
        EXPECT_GT(rl.retransmits + rl.dupDiscards +
                      rl.checksumRejects,
                  0u)
            << "seed " << seed << ": no loss fault ever fired";
    }
}

} // namespace
} // namespace cenju::fault
