/**
 * @file
 * Tests for the omega topology: stage-count rule, traversal
 * latency, wiring, and the closed-form hops and reach ranges checked
 * against a reference walk through the physical wiring.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "directory/node_set.hh"
#include "network/topology.hh"

namespace cenju
{
namespace
{

TEST(Topology, DefaultStagesMatchesPaperTable2)
{
    EXPECT_EQ(NetConfig::defaultStages(16), 2u);
    EXPECT_EQ(NetConfig::defaultStages(128), 4u);
    EXPECT_EQ(NetConfig::defaultStages(1024), 6u);
}

TEST(Topology, DefaultStagesOtherSizes)
{
    EXPECT_EQ(NetConfig::defaultStages(1), 1u);
    EXPECT_EQ(NetConfig::defaultStages(4), 1u);
    EXPECT_EQ(NetConfig::defaultStages(5), 2u);
    EXPECT_EQ(NetConfig::defaultStages(17), 4u);  // ceil(log4)=3 -> 4
    EXPECT_EQ(NetConfig::defaultStages(64), 4u);  // 3 -> 4
    EXPECT_EQ(NetConfig::defaultStages(256), 4u);
    EXPECT_EQ(NetConfig::defaultStages(257), 6u); // 5 -> 6
}

TEST(Topology, TraversalFormulaMatchesTable2Calibration)
{
    NetConfig cfg;
    // Table 2 row (c): 610 + 2 * traversal(stages).
    EXPECT_EQ(610 + 2 * cfg.traversal(2), 1690u);
    EXPECT_EQ(610 + 2 * cfg.traversal(4), 2210u);
    EXPECT_EQ(610 + 2 * cfg.traversal(6), 2730u);
}

TEST(Topology, ChannelsCoverNodes)
{
    for (unsigned n : {1u, 4u, 16u, 64u, 128u, 1024u}) {
        Topology t(n);
        EXPECT_GE(t.channels(), n);
        EXPECT_EQ(t.rowsPerStage() * switchRadix, t.channels());
    }
}

/**
 * Reference walk from channel @p src toward @p dst through the
 * physical wiring: enter at injectPoint(), leave every stage on
 * routeDigit()'s output, follow link() to the next stage. Calls
 * @p hop(stage, row, in_port, out_port) at every stage and returns
 * the node the final stage ejects to.
 */
template <typename Fn>
NodeId
walk(const Topology &t, unsigned src, NodeId dst, Fn &&hop)
{
    auto [row, in] = t.injectPoint(src);
    for (unsigned s = 0;; ++s) {
        unsigned out = t.routeDigit(dst, s);
        hop(s, row, in, out);
        if (s + 1 == t.stages())
            return t.ejectNode(row, out);
        std::tie(row, in) = t.link(s, row, out);
    }
}

class TopologyRouting : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TopologyRouting, RoutesAreWellFormed)
{
    // Every pair: the walk ends at the destination, and at every
    // stage it crosses the closed-form row on the closed-form input
    // port.
    unsigned n = GetParam();
    Topology t(n);
    unsigned bad = 0;
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            NodeId end = walk(t, src, dst,
                              [&](unsigned s, unsigned row,
                                  unsigned in, unsigned) {
                                  if ((t.row(src, dst, s) != row ||
                                       t.routeDigit(src, s) != in) &&
                                      bad++ == 0) {
                                      ADD_FAILURE()
                                          << src << " -> " << dst
                                          << " stage " << s
                                          << ": walk row " << row
                                          << " port " << in;
                                  }
                              });
            if (end != dst && bad++ == 0) {
                ADD_FAILURE() << src << " -> " << dst
                              << " ejected at " << end;
            }
        }
    }
    EXPECT_EQ(bad, 0u);
}

TEST_P(TopologyRouting, ReachRangesMatchWalk)
{
    // Output p of switch (s, r) reaches exactly the real nodes some
    // walk leaves through it. Walks start at every channel, unused
    // endpoints included, so every port of every switch is covered.
    unsigned n = GetParam();
    Topology t(n);
    unsigned rows = t.rowsPerStage();
    std::vector<NodeSet> reached(
        std::size_t(t.stages()) * rows * switchRadix, NodeSet(n));
    for (unsigned src = 0; src < t.channels(); ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            walk(t, src, dst,
                 [&](unsigned s, unsigned row, unsigned, unsigned out) {
                     reached[(s * rows + row) * switchRadix + out]
                         .insert(dst);
                 });
        }
    }
    unsigned bad = 0;
    for (unsigned s = 0; s < t.stages(); ++s) {
        for (unsigned r = 0; r < rows; ++r) {
            for (unsigned p = 0; p < switchRadix; ++p) {
                auto [first, end] = t.reachRange(s, r, p);
                const NodeSet &truth =
                    reached[(s * rows + r) * switchRadix + p];
                for (NodeId v = 0; v < n; ++v) {
                    bool inRange = first <= v && v < end;
                    if (truth.contains(v) != inRange && bad++ == 0) {
                        ADD_FAILURE()
                            << "stage " << s << " row " << r
                            << " port " << p << " range [" << first
                            << ", " << end << ") vs walk at " << v;
                    }
                }
            }
        }
    }
    EXPECT_EQ(bad, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologyRouting,
                         ::testing::Values(2u, 4u, 10u, 16u, 64u, 100u,
                                           128u, 256u, 1024u));

TEST(Topology, ReachRestrictedToRealNodes)
{
    Topology t(10); // 2 stages, 16 channels, 6 unused endpoints
    for (unsigned s = 0; s < t.stages(); ++s) {
        for (unsigned r = 0; r < t.rowsPerStage(); ++r) {
            for (unsigned p = 0; p < switchRadix; ++p) {
                auto [first, end] = t.reachRange(s, r, p);
                EXPECT_LE(first, end);
                EXPECT_LE(end, 10u);
            }
        }
    }
}

TEST(Topology, Stage0ReachPartitionsAllNodes)
{
    // The four output ports of any stage-0 switch on a route's path
    // must jointly reach every node, each exactly once: the network
    // is fully connected.
    Topology t(64);
    auto [row, port] = t.injectPoint(13);
    (void)port;
    NodeSet all(64);
    unsigned total = 0;
    for (unsigned p = 0; p < switchRadix; ++p) {
        auto [first, end] = t.reachRange(0, row, p);
        for (NodeId v = first; v < end; ++v)
            all.insert(v);
        total += end - first;
    }
    EXPECT_EQ(all.count(), 64u);
    EXPECT_EQ(total, 64u);
}

TEST(Topology, ShuffleIsDigitRotation)
{
    Topology t(64); // 4 stages, 256 channels
    // Digits (d3 d2 d1 d0): shuffle -> (d2 d1 d0 d3).
    unsigned c = (2u << 6) | (3u << 4) | (1u << 2) | 0u; // 2,3,1,0
    unsigned expect = (3u << 6) | (1u << 4) | (0u << 2) | 2u; // 3,1,0,2
    EXPECT_EQ(t.shuffle(c), expect);
}

TEST(Topology, OversizedSystemRejected)
{
    EXPECT_EXIT(Topology t(2000), ::testing::ExitedWithCode(1),
                "unsupported");
}

} // namespace
} // namespace cenju
