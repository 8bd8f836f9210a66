/**
 * @file
 * Unit and property tests for the directory module: node sets, the
 * bit-pattern structure (paper Figure 3), every node-map scheme's
 * superset invariant, entry packing round-trips.
 */

#include <gtest/gtest.h>

#include <memory>

#include "directory/bit_pattern.hh"
#include "directory/cenju_node_map.hh"
#include "directory/coarse_vector_map.hh"
#include "directory/directory.hh"
#include "directory/entry.hh"
#include "directory/full_map.hh"
#include "directory/hier_bitmap_map.hh"
#include "directory/node_map.hh"
#include "directory/node_set.hh"
#include "directory/pointer_coarse_vector_map.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

TEST(NodeSet, BasicMembership)
{
    NodeSet s(128);
    EXPECT_TRUE(s.empty());
    s.insert(0);
    s.insert(64);
    s.insert(127);
    EXPECT_TRUE(s.contains(0));
    EXPECT_TRUE(s.contains(64));
    EXPECT_TRUE(s.contains(127));
    EXPECT_FALSE(s.contains(1));
    EXPECT_EQ(s.count(), 3u);
    s.erase(64);
    EXPECT_FALSE(s.contains(64));
    EXPECT_EQ(s.count(), 2u);
}

TEST(NodeSet, OutOfRangeContainsIsFalse)
{
    NodeSet s(16);
    EXPECT_FALSE(s.contains(1000));
}

TEST(NodeSet, InsertOutOfRangeDies)
{
    NodeSet s(16);
    EXPECT_DEATH(s.insert(16), "capacity");
}

TEST(NodeSet, IntersectsAndSubset)
{
    NodeSet a(64), b(64);
    a.insert(3);
    a.insert(40);
    b.insert(40);
    EXPECT_TRUE(a.intersects(b));
    EXPECT_TRUE(b.subsetOf(a));
    EXPECT_FALSE(a.subsetOf(b));
    b.erase(40);
    EXPECT_FALSE(a.intersects(b));
    EXPECT_TRUE(b.subsetOf(a)); // empty set
}

TEST(NodeSet, UnionIntersectEquality)
{
    NodeSet a(64), b(64);
    a.insert(1);
    b.insert(2);
    NodeSet u = a;
    u |= b;
    EXPECT_EQ(u.count(), 2u);
    u &= a;
    EXPECT_TRUE(u == a);
}

TEST(NodeSet, ForEachAscendingAndFirst)
{
    NodeSet s(1024);
    for (NodeId n : {900u, 5u, 63u, 64u})
        s.insert(n);
    auto v = s.toVector();
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 5u);
    EXPECT_EQ(v[1], 63u);
    EXPECT_EQ(v[2], 64u);
    EXPECT_EQ(v[3], 900u);
    EXPECT_EQ(s.first(), 5u);
    NodeSet e(8);
    EXPECT_EQ(e.first(), invalidNode);
}

TEST(NodeSet, IntersectsRangeMatchesMemberScan)
{
    Rng rng(31);
    for (unsigned cap : {1u, 10u, 63u, 64u, 65u, 100u, 128u, 1000u,
                         1024u}) {
        for (int trial = 0; trial < 50; ++trial) {
            NodeSet s(cap);
            // Sparse to dense, so hits and misses both occur.
            unsigned members = unsigned(rng.below(1 + cap / 8));
            for (unsigned k = 0; k < members; ++k)
                s.insert(NodeId(rng.below(cap)));
            // Random ranges (some running past the capacity), plus
            // ranges ending on either side of each word boundary.
            std::vector<std::pair<NodeId, NodeId>> ranges;
            for (int k = 0; k < 40; ++k) {
                ranges.push_back({NodeId(rng.below(cap + 70)),
                                  NodeId(rng.below(cap + 70))});
            }
            for (NodeId b = 63; b < cap + 64; b += 64) {
                ranges.push_back({b, b + 1});
                ranges.push_back({b, b + 2});
                ranges.push_back({b - 1, b + 66});
                ranges.push_back({0, b});
                ranges.push_back({b + 1, cap + 200});
            }
            for (auto [begin, end] : ranges) {
                bool scan = false;
                s.forEach([&](NodeId n) {
                    scan = scan || (begin <= n && n < end);
                });
                EXPECT_EQ(s.intersectsRange(begin, end), scan)
                    << "capacity " << cap << " range [" << begin
                    << ", " << end << ")";
            }
        }
    }
}

TEST(NodeSet, CapacityAboveMaxNodesDies)
{
    EXPECT_DEATH(NodeSet s(maxNodes + 1), "capacity");
}

// --- bit-pattern structure -----------------------------------------

TEST(BitPattern, PaperFigure3Example)
{
    // Sharers {0, 4, 5, 32, 164} must be represented; the paper
    // says the pattern then covers exactly twelve nodes:
    // {0,4,5,32,36,37,128,132,133,160,164,165}.
    BitPattern p;
    for (NodeId n : {0u, 4u, 5u, 32u, 164u})
        p.add(n);
    EXPECT_EQ(p.representedCount(1024), 12u);
    NodeSet expected(1024);
    for (NodeId n :
         {0u, 4u, 5u, 32u, 36u, 37u, 128u, 132u, 133u, 160u, 164u,
          165u}) {
        expected.insert(n);
    }
    EXPECT_TRUE(p.decode(1024) == expected);
}

TEST(BitPattern, SupersetInvariant)
{
    Rng rng(17);
    for (int trial = 0; trial < 200; ++trial) {
        BitPattern p;
        auto sharers = rng.sampleDistinct(
            static_cast<std::uint32_t>(1 + rng.below(64)), 1024);
        for (auto n : sharers)
            p.add(n);
        for (auto n : sharers)
            EXPECT_TRUE(p.contains(n));
    }
}

TEST(BitPattern, ExactWithin32NodeGroup)
{
    // All sharers in one 32-node group: slices 1-3 are constant, so
    // only the 32-bit field varies and the pattern is exact.
    Rng rng(21);
    for (int trial = 0; trial < 50; ++trial) {
        BitPattern p;
        NodeId base = static_cast<NodeId>(rng.below(32)) * 32;
        auto offs = rng.sampleDistinct(
            static_cast<std::uint32_t>(1 + rng.below(32)), 32);
        NodeSet truth(1024);
        for (auto o : offs) {
            p.add(base + o);
            truth.insert(base + o);
        }
        EXPECT_TRUE(p.decode(1024) == truth);
    }
}

TEST(BitPattern, SingleNodeIsExact)
{
    for (NodeId n = 0; n < 1024; n += 37) {
        BitPattern p;
        p.add(n);
        EXPECT_EQ(p.representedCount(1024), 1u);
        EXPECT_TRUE(p.contains(n));
    }
}

TEST(BitPattern, PackUnpackRoundTrip)
{
    Rng rng(5);
    for (int trial = 0; trial < 100; ++trial) {
        BitPattern p;
        for (auto n : rng.sampleDistinct(
                 static_cast<std::uint32_t>(rng.below(20)), 1024))
            p.add(n);
        BitPattern q = BitPattern::unpack(p.pack());
        EXPECT_TRUE(p == q);
        EXPECT_LT(p.pack(), 1ull << 42);
    }
}

TEST(BitPattern, RepresentedCountIsProductOfPopcounts)
{
    BitPattern p;
    p.add(0);    // slices 0,0,0,0
    p.add(65);   // slices 0,1,0,1
    p.add(1023); // slices 3,3,1,31
    // fields: f1 {0,3}, f2 {0,1,3}, f3 {0,1}, f4 {0,1,31}
    EXPECT_EQ(p.representedCount(1024), 2u * 3u * 2u * 3u);
}

// --- scheme property tests over all kinds ---------------------------

class NodeMapSchemes
    : public ::testing::TestWithParam<NodeMapKind>
{};

TEST_P(NodeMapSchemes, SupersetOfTrueSharersAlways)
{
    const unsigned kNodes = 1024;
    Rng rng(123);
    auto map = makeNodeMap(GetParam(), kNodes);
    for (int trial = 0; trial < 100; ++trial) {
        map->clear();
        NodeSet truth(kNodes);
        auto sharers = rng.sampleDistinct(
            static_cast<std::uint32_t>(1 + rng.below(100)), kNodes);
        for (auto n : sharers) {
            map->add(n);
            truth.insert(n);
        }
        NodeSet decoded = map->decode(kNodes);
        EXPECT_TRUE(truth.subsetOf(decoded))
            << nodeMapKindName(GetParam());
        EXPECT_EQ(decoded.count(), map->representedCount(kNodes));
        for (auto n : sharers)
            EXPECT_TRUE(map->contains(n));
    }
}

TEST_P(NodeMapSchemes, ClearEmptiesAndSetOnlyIsSingleton)
{
    const unsigned kNodes = 256;
    auto map = makeNodeMap(GetParam(), kNodes);
    map->add(3);
    map->add(77);
    EXPECT_FALSE(map->empty());
    map->clear();
    EXPECT_TRUE(map->empty());
    EXPECT_EQ(map->decode(kNodes).count(), 0u);

    map->setOnly(200);
    EXPECT_TRUE(map->contains(200));
    if (GetParam() != NodeMapKind::CoarseVector) {
        // Schemes with a pointer structure represent singletons
        // exactly — required by the protocol's "only the master is
        // registered" checks. A bare coarse vector cannot (a group
        // bit covers groupSize nodes), which is why it is only a
        // Figure 4 baseline, not a protocol directory.
        EXPECT_TRUE(map->isOnly(200, kNodes));
        EXPECT_FALSE(map->containsOther(200, kNodes));
        EXPECT_EQ(map->decode(kNodes).count(), 1u);
    }
}

TEST_P(NodeMapSchemes, ContainsOtherSemantics)
{
    const unsigned kNodes = 256;
    auto map = makeNodeMap(GetParam(), kNodes);
    EXPECT_FALSE(map->containsOther(0, kNodes));
    map->add(10);
    if (GetParam() != NodeMapKind::CoarseVector) {
        EXPECT_FALSE(map->containsOther(10, kNodes));
    }
    EXPECT_TRUE(map->containsOther(11, kNodes));
    map->add(20);
    EXPECT_TRUE(map->containsOther(10, kNodes));
}

TEST_P(NodeMapSchemes, CloneEmptyMatchesConfiguration)
{
    const unsigned kNodes = 512;
    auto map = makeNodeMap(GetParam(), kNodes);
    map->add(5);
    auto clone = map->cloneEmpty();
    EXPECT_TRUE(clone->empty());
    EXPECT_EQ(clone->kind(), map->kind());
    clone->add(300);
    EXPECT_TRUE(clone->contains(300));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, NodeMapSchemes,
    ::testing::Values(NodeMapKind::CenjuPointerBitPattern,
                      NodeMapKind::CoarseVector,
                      NodeMapKind::HierarchicalBitmap,
                      NodeMapKind::FullMap,
                      NodeMapKind::PointerCoarseVector));

// --- scheme-specific behaviour --------------------------------------

TEST(CenjuNodeMap, ExactUpToFourSharers)
{
    CenjuNodeMap m;
    for (NodeId n : {7u, 300u, 999u, 123u})
        m.add(n);
    EXPECT_TRUE(m.pointerMode());
    EXPECT_EQ(m.representedCount(1024), 4u);
    // Re-adding an existing sharer must not consume a pointer.
    m.add(300);
    EXPECT_TRUE(m.pointerMode());
}

TEST(CenjuNodeMap, SwitchesToBitPatternOnFifthSharer)
{
    CenjuNodeMap m;
    for (NodeId n : {7u, 300u, 999u, 123u})
        m.add(n);
    m.add(501);
    EXPECT_FALSE(m.pointerMode());
    for (NodeId n : {7u, 300u, 999u, 123u, 501u})
        EXPECT_TRUE(m.contains(n));
}

TEST(CenjuNodeMap, ExactForAnySetIn32NodeSystem)
{
    // Paper: all memory blocks are precise in systems of <= 32
    // nodes, because every node falls in one 32-bit field group.
    Rng rng(9);
    for (int trial = 0; trial < 100; ++trial) {
        CenjuNodeMap m;
        NodeSet truth(32);
        for (auto n : rng.sampleDistinct(
                 static_cast<std::uint32_t>(1 + rng.below(32)), 32)) {
            m.add(n);
            truth.insert(n);
        }
        EXPECT_TRUE(m.decode(32) == truth);
    }
}

TEST(CenjuNodeMap, PackUnpackPointerMode)
{
    CenjuNodeMap m;
    m.add(1);
    m.add(1000);
    CenjuNodeMap u = CenjuNodeMap::unpackMap(m.pack());
    EXPECT_TRUE(u.pointerMode());
    EXPECT_TRUE(u.contains(1));
    EXPECT_TRUE(u.contains(1000));
    EXPECT_EQ(u.representedCount(1024), 2u);
}

TEST(CenjuNodeMap, PackUnpackBitPatternMode)
{
    CenjuNodeMap m;
    for (NodeId n : {1u, 2u, 3u, 4u, 5u, 600u})
        m.add(n);
    CenjuNodeMap u = CenjuNodeMap::unpackMap(m.pack());
    EXPECT_FALSE(u.pointerMode());
    EXPECT_TRUE(u.decode(1024) == m.decode(1024));
    // 59-bit node-map field limit (paper: max map bits).
    EXPECT_LT(m.pack(), 1ull << 59);
}

TEST(CoarseVector, GroupGranularity)
{
    CoarseVectorMap m(1024, 32);
    EXPECT_EQ(m.groupSize(), 32u);
    m.add(40); // group 1 = nodes 32..63
    for (NodeId n = 32; n < 64; ++n)
        EXPECT_TRUE(m.contains(n));
    EXPECT_FALSE(m.contains(31));
    EXPECT_FALSE(m.contains(64));
    EXPECT_EQ(m.representedCount(1024), 32u);
}

TEST(CoarseVector, ExactWhenGroupsAreSingletons)
{
    CoarseVectorMap m(32, 32);
    m.add(5);
    m.add(31);
    EXPECT_EQ(m.representedCount(32), 2u);
    EXPECT_TRUE(m.isOnly(5, 32) == false);
}

TEST(HierBitmap, CrossSubtreePollution)
{
    // Sharers 0 and 5 (digits differ at the last two levels) also
    // cover nodes 1 and 4: (0,1),(0,5),(4,1)... -> {0,1,4,5}.
    HierBitmapMap m;
    m.add(0);
    m.add(5);
    NodeSet d = m.decode(1024);
    EXPECT_TRUE(d.contains(0));
    EXPECT_TRUE(d.contains(1));
    EXPECT_TRUE(d.contains(4));
    EXPECT_TRUE(d.contains(5));
    EXPECT_EQ(d.count(), 4u);
}

TEST(HierBitmap, StorageIs24Bits)
{
    HierBitmapMap m;
    EXPECT_EQ(m.storageBits(), 24u);
}

TEST(FullMap, AlwaysExact)
{
    Rng rng(31);
    FullMap m(1024);
    NodeSet truth(1024);
    for (auto n : rng.sampleDistinct(300, 1024)) {
        m.add(n);
        truth.insert(n);
    }
    EXPECT_TRUE(m.decode(1024) == truth);
    EXPECT_EQ(m.storageBits(), 1024u);
}

TEST(PointerCoarseVector, SwitchesToCoarse)
{
    PointerCoarseVectorMap m(1024, 32);
    for (NodeId n : {1u, 2u, 3u, 4u})
        m.add(n);
    EXPECT_EQ(m.representedCount(1024), 4u);
    m.add(100);
    // Now coarse: group of 100 (96..127) plus group 0 (0..31).
    EXPECT_EQ(m.representedCount(1024), 64u);
}

// --- directory entry -------------------------------------------------

TEST(DirectoryEntry, InitialStateIsCleanEmpty)
{
    Directory dir(NodeMapKind::CenjuPointerBitPattern, 64);
    DirectoryEntry &e = dir.entry(42);
    EXPECT_EQ(e.state(), MemState::Clean);
    EXPECT_FALSE(e.reservation());
    EXPECT_TRUE(e.map().empty());
    EXPECT_EQ(dir.touchedEntries(), 1u);
    EXPECT_EQ(dir.find(42), &e);
    EXPECT_EQ(dir.find(43), nullptr);
}

TEST(DirectoryEntry, PendingPredicate)
{
    EXPECT_FALSE(isPending(MemState::Clean));
    EXPECT_FALSE(isPending(MemState::Dirty));
    EXPECT_TRUE(isPending(MemState::PendingShared));
    EXPECT_TRUE(isPending(MemState::PendingExclusive));
    EXPECT_TRUE(isPending(MemState::PendingInvalidate));
}

TEST(DirectoryEntry, PackRoundTripAllStates)
{
    for (MemState s :
         {MemState::Clean, MemState::Dirty, MemState::PendingShared,
          MemState::PendingExclusive,
          MemState::PendingInvalidate}) {
        for (bool r : {false, true}) {
            CenjuNodeMap m;
            m.add(17);
            m.add(900);
            std::uint64_t raw = packEntry(s, r, m);
            UnpackedEntry u = unpackEntry(raw);
            EXPECT_EQ(u.state, s);
            EXPECT_EQ(u.reservation, r);
            EXPECT_TRUE(u.map.decode(1024) == m.decode(1024));
        }
    }
}

TEST(DirectoryEntry, SixtyFourBitEntryHoldsEverything)
{
    // The paper's constant-hardware-cost claim: reservation + state
    // + 59-bit node map fit one 64-bit word per 128-byte block.
    CenjuNodeMap m;
    for (NodeId n = 0; n < 1024; n += 3)
        m.add(n);
    std::uint64_t raw =
        packEntry(MemState::PendingInvalidate, true, m);
    UnpackedEntry u = unpackEntry(raw);
    EXPECT_EQ(u.state, MemState::PendingInvalidate);
    EXPECT_TRUE(u.reservation);
    EXPECT_TRUE(u.map.decode(1024) == m.decode(1024));
}

TEST(DirectoryEntry, StateNames)
{
    EXPECT_STREQ(memStateName(MemState::Clean), "C");
    EXPECT_STREQ(memStateName(MemState::PendingShared), "Ps");
}

} // namespace
} // namespace cenju
