/**
 * @file
 * Property tests for the section 3.4 deadlock-prevention scheme
 * and the sizing theorem behind the paper's 32 KB / 64 KB buffer
 * claims: under saturating conflicting traffic with tiny hardware
 * buffers,
 *  - with the main-memory overflow queues the system always
 *    drains, and every queue's high-water mark stays within
 *    4 x nodes entries;
 *  - with the queues disabled, the Figure 9 dependency cycles
 *    close and the system wedges.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/dsm_system.hh"

namespace cenju
{
namespace
{

struct StressResult
{
    unsigned issued = 0;
    unsigned completed = 0;
    std::size_t reqQueueHw = 0;
    std::size_t slaveMemHw = 0;
    std::size_t homeOutHw = 0;
};

StressResult
stress(bool avoidance, unsigned nodes, unsigned rounds)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.xbCapacity = 1;
    // These tests exercise the interplay of section 3.4's memory
    // queues with the *fabric's* ejection back-pressure — a
    // multistage property. Pin the backend so the suite stays
    // meaningful under the CI CENJU_TRANSPORT matrix (on the
    // contention-free backends the saturation wedge cannot form).
    // Pin reliability off too: the e2e decorator takes every
    // delivery into its own unbounded receive queue, so the
    // modules' back-pressure never reaches the fabric.
    cfg.transport = TransportKind::Multistage;
    cfg.reliability = ReliabilityKind::Off;
    cfg.proto.deadlockAvoidance = avoidance;
    cfg.proto.slaveHwBuffer = 1;
    cfg.proto.homeHwOutBuffer = 1;
    cfg.proto.useMulticast = false;
    DsmSystem sys(cfg);

    const unsigned hot = std::min(nodes, 8u);
    std::vector<Addr> blocks;
    for (unsigned b = 0; b < hot; ++b)
        blocks.push_back(addr_map::makeShared(b, 0));
    for (NodeId n = 0; n < nodes; ++n) {
        for (Addr a : blocks) {
            bool done = false;
            sys.node(n).master().load(a, [&](std::uint64_t) {
                done = true;
            });
            while (!done && sys.eq().runOne()) {
            }
        }
    }

    StressResult r;
    std::function<void(NodeId, unsigned, unsigned)> kick =
        [&](NodeId n, unsigned slot, unsigned remaining) {
            if (remaining == 0)
                return;
            Addr a = blocks[(slot + remaining + n) % hot];
            ++r.issued;
            sys.node(n).master().store(
                a, n, [&, n, slot, remaining] {
                    ++r.completed;
                    kick(n, slot, remaining - 1);
                });
        };
    for (NodeId n = 0; n < nodes; ++n) {
        for (unsigned slot = 0; slot < maxOutstanding; ++slot)
            kick(n, slot, rounds);
    }
    sys.eq().run();

    for (NodeId n = 0; n < nodes; ++n) {
        r.reqQueueHw = std::max(
            r.reqQueueHw,
            sys.node(n).home().requestQueue().highWater());
        r.slaveMemHw = std::max(
            r.slaveMemHw, sys.node(n).slave().memHighWater());
        r.homeOutHw = std::max(r.homeOutHw,
                               sys.node(n).homeOutMemHighWater());
    }
    return r;
}

class DeadlockAvoidance
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DeadlockAvoidance, MemoryQueuesGuaranteeDrain)
{
    unsigned nodes = GetParam();
    StressResult r = stress(true, nodes, 4);
    EXPECT_EQ(r.completed, r.issued);
    // The paper's sizing theorem: each memory queue holds at most
    // nodes x maxOutstanding entries.
    EXPECT_LE(r.reqQueueHw, std::size_t(nodes) * maxOutstanding);
    EXPECT_LE(r.slaveMemHw, std::size_t(nodes) * maxOutstanding);
    EXPECT_LE(r.homeOutHw, std::size_t(nodes) * maxOutstanding);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeadlockAvoidance,
                         ::testing::Values(8u, 16u, 32u));

TEST(DeadlockAvoidance, DisabledQueuesWedgeUnderSaturation)
{
    StressResult r = stress(false, 32, 4);
    EXPECT_LT(r.completed, r.issued)
        << "expected the Figure 9 cycles to close with the "
           "overflow queues disabled";
}

TEST(DeadlockAvoidance, DisabledQueuesKeepRefusedHomeReplies)
{
    // With the memory queues off, a full one-entry home output
    // buffer refuses the second of two grants while node 0's output
    // is held. The refused grant must wait behind the first, not be
    // dropped.
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.proto.deadlockAvoidance = false;
    cfg.proto.homeHwOutBuffer = 1;
    DsmSystem sys(cfg);
    sys.node(0).faultHoldOutput();
    unsigned done = 0;
    for (NodeId n : {1u, 2u}) {
        sys.node(n).master().load(
            addr_map::makeShared(0, n * blockBytes),
            [&done](std::uint64_t) { ++done; });
    }
    sys.eq().run();
    EXPECT_EQ(done, 0u);
    sys.node(0).faultReleaseOutput();
    sys.eq().run();
    EXPECT_EQ(done, 2u);
}

TEST(DeadlockAvoidance, NormalBuffersNeverNeedMemoryQueues)
{
    // With default (realistic) hardware buffer sizes and moderate
    // traffic, the overflow queues stay nearly empty: the paper's
    // "buffer in the module, memory only when full" behaviour.
    SystemConfig cfg;
    cfg.numNodes = 16;
    DsmSystem sys(cfg);
    unsigned done = 0, issued = 0;
    for (int round = 0; round < 50; ++round) {
        for (NodeId n = 0; n < 16; ++n) {
            if (!sys.node(n).master().canIssue())
                continue;
            ++issued;
            sys.node(n).master().store(
                addr_map::makeShared(n % 4, (round % 8) * 128),
                round, [&done] { ++done; });
        }
        sys.eq().runUntil(sys.eq().now() + 2000);
    }
    sys.eq().run();
    EXPECT_EQ(done, issued);
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_LE(sys.node(n).slave().memHighWater(), 8u);
}

} // namespace
} // namespace cenju
