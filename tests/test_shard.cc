/**
 * @file
 * Sharded-engine tests (src/shard, docs/ARCHITECTURE.md).
 *
 * The expensive whole-suite certification — every committed golden
 * digest reproduced at several shard counts — lives in the
 * parallel-determinism ctest tier (tests/CMakeLists.txt). This file
 * pins the cheap invariants: the node→shard mapping and its clamping
 * rules, and seq-vs-sharded digest equivalence on a handful of
 * stress cases per backend, including the budget-cutoff and
 * multistage-clamp edge cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dsm_system.hh"
#include "fault/stress.hh"
#include "shard/sharded_engine.hh"

using namespace cenju;
using namespace cenju::fault;

namespace
{

StressResult
runSeed(std::uint64_t seed, TransportKind transport, unsigned shards,
        std::uint64_t budget = defaultEventBudget)
{
    StressOptions opts;
    opts.nodes = 16;
    opts.transport = transport;
    StressCase c = makeStressCase(seed, opts);
    return runStressCase(c, budget, shards);
}

/// Runs three stress seeds sequentially and at 2, 3 and 8 shards on
/// `transport`, and expects every result field to agree.
void
expectShardedMatchesSequential(TransportKind transport)
{
    for (std::uint64_t seed : {1ull, 2ull, 7341ull}) {
        StressResult seq = runSeed(seed, transport, 1);
        for (unsigned shards : {2u, 3u, 8u}) {
            StressResult sh = runSeed(seed, transport, shards);
            std::string run = std::string(nameOf(transport)) + " seed " +
                              std::to_string(seed) + " shards " +
                              std::to_string(shards);
            EXPECT_EQ(sh.digest, seq.digest) << run;
            EXPECT_EQ(sh.steps, seq.steps) << run;
            EXPECT_EQ(sh.events, seq.events) << run;
            EXPECT_EQ(sh.completed, seq.completed) << run;
        }
    }
}

} // namespace

TEST(ShardMapping, BlockPartitionCoversAllNodes)
{
    shard::ShardedEngine eng(4, 16, 10);
    EXPECT_EQ(eng.numShards(), 4u);
    // Contiguous blocks of 4; boundaries land where they should.
    EXPECT_EQ(eng.shardOf(0), 0u);
    EXPECT_EQ(eng.shardOf(3), 0u);
    EXPECT_EQ(eng.shardOf(4), 1u);
    EXPECT_EQ(eng.shardOf(15), 3u);
    // Monotone and total over the node range.
    unsigned prev = 0;
    for (NodeId n = 0; n < 16; ++n) {
        unsigned s = eng.shardOf(n);
        EXPECT_GE(s, prev);
        EXPECT_LT(s, eng.numShards());
        prev = s;
    }
}

TEST(ShardMapping, NonDividingCountsLeaveNoEmptyShard)
{
    // 5 nodes over 4 requested shards: blocks of 2 -> 3 shards, the
    // last holding a single node. A naive n/shards split would have
    // produced an empty shard 3 whose queue never drains a window.
    shard::ShardedEngine eng(4, 5, 10);
    EXPECT_EQ(eng.numShards(), 3u);
    EXPECT_EQ(eng.shardOf(0), 0u);
    EXPECT_EQ(eng.shardOf(1), 0u);
    EXPECT_EQ(eng.shardOf(2), 1u);
    EXPECT_EQ(eng.shardOf(4), 2u);
}

TEST(ShardMapping, RequestsAboveNodeCountClampToOnePerNode)
{
    shard::ShardedEngine eng(64, 3, 10);
    EXPECT_EQ(eng.numShards(), 3u);
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(eng.shardOf(n), n);
}

TEST(ShardMapping, ZeroLookaheadPanics)
{
    EXPECT_DEATH(shard::ShardedEngine(2, 4, 0), "lookahead");
}

TEST(ShardDeterminism, IdealMatchesSequentialDigest)
{
    // Sequential and sharded runs schedule every arrival through the
    // same path, one event per multicast member, so the ideal
    // backend's hardware multicast maps 1:1 too and every result
    // field must agree.
    expectShardedMatchesSequential(TransportKind::Ideal);
}

TEST(ShardDeterminism, DirectMatchesSequentialExactly)
{
    // The direct backend has no hardware multicast, so the event
    // mapping is 1:1 and every result field must agree.
    expectShardedMatchesSequential(TransportKind::Direct);
}

TEST(ShardDeterminism, ShardedRunsAreReplayStable)
{
    StressResult a = runSeed(1, TransportKind::Ideal, 4);
    StressResult b = runSeed(1, TransportKind::Ideal, 4);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.events, b.events);
}

TEST(ShardDeterminism, MultistageClampsToOneShard)
{
    // The multistage fabric reports no cross-shard latency floor
    // (its injection path mutates switch state synchronously), so a
    // sharded request falls back to a sequential run — identical in
    // every observable, including the event count.
    StressResult seq = runSeed(1, TransportKind::Multistage, 1);
    StressResult sh = runSeed(1, TransportKind::Multistage, 4);
    EXPECT_EQ(sh.digest, seq.digest);
    EXPECT_EQ(sh.steps, seq.steps);
    EXPECT_EQ(sh.events, seq.events);
    EXPECT_EQ(sh.completed, seq.completed);
}

TEST(ShardDeterminism, BudgetCutoffMatchesSequential)
{
    // A sharded run executes whole windows past the budget but only
    // attributes events with global index <= budget, so the
    // reported digest/steps/events at a budget stop must equal the
    // sequential run's (exact on direct: 1:1 event mapping).
    for (std::uint64_t budget : {500ull, 2000ull}) {
        StressResult seq =
            runSeed(7341, TransportKind::Direct, 1, budget);
        StressResult sh =
            runSeed(7341, TransportKind::Direct, 4, budget);
        EXPECT_EQ(sh.digest, seq.digest) << "budget " << budget;
        EXPECT_EQ(sh.steps, seq.steps) << "budget " << budget;
        EXPECT_EQ(sh.events, seq.events) << "budget " << budget;
        EXPECT_EQ(sh.completed, seq.completed);
        EXPECT_EQ(sh.budgetHit, seq.budgetHit);
    }
}

TEST(ShardDeterminism, RepeatedRunsBoundOnlyTheirOwnEvents)
{
    // The engine's order and finish counters span every run on one
    // system, so runBounded must bound and count each run's share:
    // later runs on a sharded system must complete like the first
    // and stop at its own budget, exactly as a sequential one does.
    auto threeRuns = [](unsigned shards) {
        SystemConfig cfg;
        cfg.numNodes = 16;
        cfg.transport = TransportKind::Ideal;
        cfg.reliability = ReliabilityKind::Off;
        cfg.shards = shards;
        cfg.proto.runtimeChecks = false;
        DsmSystem sys(cfg);
        ShmArray x = sys.shmAlloc(64, Mapping::blockCyclic());
        std::vector<DsmSystem::Program> progs(
            cfg.numNodes, [&x](Env &env) -> Task {
                co_await env.put(x, env.id(), 1.0);
                co_await env.barrier();
                (void)co_await env.get(
                    x, (env.id() + 1) % env.numNodes());
            });
        BoundedRun all = sys.runBounded(progs, DsmSystem::unbounded);
        BoundedRun again = sys.runBounded(progs, DsmSystem::unbounded);
        BoundedRun cut = sys.runBounded(progs, all.events / 2);
        EXPECT_EQ(sys.effectiveShards(), shards);
        return std::vector<BoundedRun>{all, again, cut};
    };
    std::vector<BoundedRun> seq = threeRuns(1);
    std::vector<BoundedRun> sh = threeRuns(4);
    EXPECT_TRUE(seq[0].completed);
    EXPECT_TRUE(seq[1].completed);
    EXPECT_TRUE(seq[2].budgetHit);
    EXPECT_EQ(seq[2].events, seq[0].events / 2);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(sh[i].completed, seq[i].completed) << "run " << i;
        EXPECT_EQ(sh[i].budgetHit, seq[i].budgetHit) << "run " << i;
        EXPECT_EQ(sh[i].events, seq[i].events) << "run " << i;
    }
}
