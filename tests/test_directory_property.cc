/**
 * @file
 * Property tests for the directory node-map schemes: under random
 * sharer-set histories, every scalable scheme must decode to a
 * superset of the true sharer set (imprecision may only ever
 * over-approximate — an under-approximation would skip an
 * invalidation and break coherence), and the pointer-based schemes
 * must be exact while four pointers suffice (paper section 3.2).
 * Every query the protocol asks of a map (contains, representedCount,
 * empty, isOnly, containsOther) must agree with the map's own decode,
 * and the bit pattern's word-wise decode and count must agree with
 * its per-id membership test at every system size.
 *
 * Set CENJU_FUZZ_SEED to reproduce or vary a randomized run; the
 * default seed is fixed so plain ctest is deterministic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "directory/bit_pattern.hh"
#include "directory/node_map.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

constexpr NodeMapKind allKinds[] = {
    NodeMapKind::CenjuPointerBitPattern,
    NodeMapKind::CoarseVector,
    NodeMapKind::HierarchicalBitmap,
    NodeMapKind::FullMap,
    NodeMapKind::PointerCoarseVector,
};

std::uint64_t
fuzzSeed()
{
    if (const char *s = std::getenv("CENJU_FUZZ_SEED"))
        return std::strtoull(s, nullptr, 10);
    return 0; // fixed default
}

/** True sharer set alongside the scheme under test. */
struct Reference
{
    NodeSet set;
    unsigned distinctSinceReset = 0; ///< adds of new ids

    explicit Reference(unsigned n) : set(n) {}

    void
    clear()
    {
        set.clear();
        distinctSinceReset = 0;
    }

    void
    add(NodeId n)
    {
        if (!set.contains(n))
            ++distinctSinceReset;
        set.insert(n);
    }

    void
    setOnly(NodeId n)
    {
        set.clear();
        set.insert(n);
        distinctSinceReset = 1;
    }
};

/** decode(map) must cover every true sharer. */
void
expectSuperset(const NodeMap &map, const Reference &ref,
               unsigned nodes)
{
    NodeSet decoded = map.decode(nodes);
    ref.set.forEach([&](NodeId v) {
        EXPECT_TRUE(decoded.contains(v))
            << nameOf(map.kind()) << " lost sharer " << v;
        EXPECT_TRUE(map.contains(v))
            << nameOf(map.kind())
            << " contains() denies sharer " << v;
    });
    EXPECT_EQ(map.empty(), ref.set.empty() && decoded.empty())
        << nameOf(map.kind());
}

/**
 * Every query the protocol uses agrees with decode(nodes): contains
 * for every id, representedCount, empty, and isOnly/containsOther
 * for one true sharer and one random id.
 */
void
expectQueriesMatchDecode(const NodeMap &map, const Reference &ref,
                         unsigned nodes, Rng &rng)
{
    NodeSet decoded = map.decode(nodes);
    for (NodeId v = 0; v < nodes; ++v) {
        if (map.contains(v) != decoded.contains(v)) {
            ADD_FAILURE() << nameOf(map.kind()) << " contains(" << v
                          << ") disagrees with decode";
            break;
        }
    }
    EXPECT_EQ(map.representedCount(nodes), decoded.count())
        << nameOf(map.kind());
    EXPECT_EQ(map.empty(), decoded.empty()) << nameOf(map.kind());

    std::vector<NodeId> probes{NodeId(rng.below(nodes))};
    if (!ref.set.empty()) {
        std::vector<NodeId> sharers = ref.set.toVector();
        probes.push_back(sharers[rng.below(sharers.size())]);
    }
    for (NodeId v : probes) {
        NodeSet others = decoded;
        others.erase(v);
        EXPECT_EQ(map.isOnly(v, nodes),
                  decoded.contains(v) && others.empty())
            << nameOf(map.kind()) << " isOnly(" << v << ")";
        EXPECT_EQ(map.containsOther(v, nodes), !others.empty())
            << nameOf(map.kind()) << " containsOther(" << v << ")";
    }
}

/** Exact schemes decode to precisely the true set. */
void
expectExact(const NodeMap &map, const Reference &ref,
            unsigned nodes)
{
    NodeSet decoded = map.decode(nodes);
    EXPECT_EQ(decoded.count(), ref.set.count())
        << nameOf(map.kind());
    ref.set.forEach([&](NodeId v) {
        EXPECT_TRUE(decoded.contains(v))
            << nameOf(map.kind());
    });
}

class NodeMapProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(NodeMapProperty, DecodeIsAlwaysASupersetOfTrueSharers)
{
    unsigned nodes = GetParam();
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    for (NodeMapKind kind : allKinds) {
        Rng rng(fuzzSeed() ^ (0xd1cebeef + nodes));
        Rng probes = rng.split(1);
        for (unsigned seq = 0; seq < 50; ++seq) {
            auto map = makeNodeMap(kind, nodes);
            Reference ref(nodes);
            for (unsigned op = 0; op < 48; ++op) {
                double k = rng.real();
                if (k < 0.7) {
                    auto n = NodeId(rng.below(nodes));
                    map->add(n);
                    ref.add(n);
                } else if (k < 0.85) {
                    auto n = NodeId(rng.below(nodes));
                    map->setOnly(n);
                    ref.setOnly(n);
                } else {
                    map->clear();
                    ref.clear();
                }
                SCOPED_TRACE(std::string(nameOf(kind)) +
                             " nodes=" + std::to_string(nodes) +
                             " seq=" + std::to_string(seq) +
                             " op=" + std::to_string(op));
                expectSuperset(*map, ref, nodes);
                expectQueriesMatchDecode(*map, ref, nodes, probes);
            }
        }
    }
}

TEST_P(NodeMapProperty, PointerSchemesExactUpToFourSharers)
{
    unsigned nodes = GetParam();
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    for (NodeMapKind kind :
         {NodeMapKind::CenjuPointerBitPattern,
          NodeMapKind::PointerCoarseVector,
          NodeMapKind::FullMap}) {
        Rng rng(fuzzSeed() ^ (0xfeed1234 + nodes));
        for (unsigned seq = 0; seq < 50; ++seq) {
            auto map = makeNodeMap(kind, nodes);
            Reference ref(nodes);
            // At most 4 distinct sharers per history: pointer
            // representations never overflow, so decode must be
            // exact (FullMap is exact unconditionally).
            auto ids = rng.sampleDistinct(4, nodes);
            for (unsigned op = 0; op < 24; ++op) {
                double k = rng.real();
                if (k < 0.8) {
                    auto n = NodeId(ids[rng.below(ids.size())]);
                    map->add(n);
                    ref.add(n);
                } else {
                    map->clear();
                    ref.clear();
                }
                SCOPED_TRACE(std::string(nameOf(kind)) +
                             " nodes=" + std::to_string(nodes) +
                             " seq=" + std::to_string(seq) +
                             " op=" + std::to_string(op));
                expectExact(*map, ref, nodes);
                // isOnly agrees with the represented set.
                if (ref.set.count() == 1) {
                    EXPECT_TRUE(
                        map->isOnly(ref.set.first(), nodes));
                } else if (!ref.set.empty()) {
                    EXPECT_FALSE(
                        map->isOnly(ref.set.first(), nodes));
                }
            }
        }
    }
}

TEST_P(NodeMapProperty, SetOnlyAfterOverflowKeepsTheNode)
{
    // The protocol leans on setOnly() collapsing any (possibly
    // overflowed) map down to just the new owner. Pointer-bearing
    // schemes and the full map land on an exact singleton; the
    // group-granular schemes (coarse vector, hierarchical bitmap)
    // may only narrow to the owner's group, but must still cover
    // the owner and nothing outside its group.
    unsigned nodes = GetParam();
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    for (NodeMapKind kind : allKinds) {
        auto map = makeNodeMap(kind, nodes);
        Rng rng(fuzzSeed() ^ (0xabcd + nodes));
        for (unsigned i = 0; i < 12; ++i)
            map->add(NodeId(rng.below(nodes)));
        auto keep = NodeId(rng.below(nodes));
        map->setOnly(keep);
        Reference ref(nodes);
        ref.setOnly(keep);
        SCOPED_TRACE(nameOf(kind));
        expectSuperset(*map, ref, nodes);
        bool exactKind =
            kind == NodeMapKind::CenjuPointerBitPattern ||
            kind == NodeMapKind::PointerCoarseVector ||
            kind == NodeMapKind::FullMap;
        if (exactKind) {
            expectExact(*map, ref, nodes);
            EXPECT_TRUE(map->isOnly(keep, nodes));
        } else {
            // Imprecision is bounded: isOnly() only claims a
            // singleton when the decode really is one, and that
            // claim must then name the kept node.
            NodeSet decoded = map->decode(nodes);
            EXPECT_EQ(map->isOnly(keep, nodes),
                      decoded.count() == 1);
        }
    }
}

// 48 and 100 cut a bit-pattern slice and a 64-id word: some ids the
// fields represent lie past the size, so the clipped count and
// decode differ from the unclipped ones. They come last so that the
// instances /0 to /2 keep 16, 64 and 1024.
INSTANTIATE_TEST_SUITE_P(Sizes, NodeMapProperty,
                         ::testing::Values(16u, 64u, 1024u, 48u,
                                           100u));

TEST(BitPatternProperty, WordDecodeMatchesPerIdContains)
{
    // decode and representedCount work one 64-id word at a time and
    // clip the last word at the size; the reference asks contains
    // of every id. Half the patterns are random field values, half
    // are built from up to 64 random sharers.
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    Rng rng(fuzzSeed() ^ 0xb17fa77e);
    for (unsigned nodes = 1; nodes <= maxNodes; ++nodes) {
        for (unsigned trial = 0; trial < 6; ++trial) {
            BitPattern p;
            if (trial < 3) {
                p = BitPattern::unpack(rng.next());
            } else {
                unsigned most = trial == 5 ? 64 : 8;
                auto sharers = unsigned(1 + rng.below(most));
                for (unsigned i = 0; i < sharers; ++i)
                    p.add(NodeId(rng.below(maxNodes)));
            }
            NodeSet decoded = p.decode(nodes);
            unsigned count = 0;
            for (NodeId v = 0; v < nodes; ++v) {
                count += p.contains(v);
                if (decoded.contains(v) != p.contains(v)) {
                    ADD_FAILURE() << "nodes=" << nodes << " pattern="
                                  << p.pack() << ": decode disagrees"
                                  << " with contains at " << v;
                    return;
                }
            }
            EXPECT_EQ(decoded.count(), count) << "nodes=" << nodes;
            EXPECT_EQ(p.representedCount(nodes), count)
                << "nodes=" << nodes << " pattern=" << p.pack();
        }
    }
}

} // namespace
} // namespace cenju
