/**
 * @file
 * Property tests for the closed-form gather wait pattern: the input
 * ports through which the members of a gather group enter a switch
 * on their routes to the group's destination (paper section 3.2,
 * Figure 5). The switch reads them as four residue queries on the
 * group (Topology::inputResidue, NodeSet::hasResidue); these tests
 * hold that against the member walk it replaced, at every (stage,
 * row) of padded and exact system sizes, and hold each of its two
 * parts against brute force.
 *
 * Set CENJU_FUZZ_SEED to reproduce or vary a randomized run; the
 * default seed is fixed so plain ctest is deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "network/network.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

std::uint64_t
fuzzSeed()
{
    if (const char *s = std::getenv("CENJU_FUZZ_SEED"))
        return std::strtoull(s, nullptr, 10);
    return 0; // fixed default
}

/** 48 and 100 clip the reach ranges: some rows lead only to unused
 * endpoints, and neither fills its last 64-id word. */
constexpr unsigned sizes[] = {16, 48, 64, 100, 128, 256, 1024};

/** Header-only packet: the switch reads only header fields. */
struct GatherPacket : Packet
{
    std::unique_ptr<Packet>
    clone() const override
    {
        return std::make_unique<GatherPacket>(*this);
    }
};

/** Random group of a random density, from one member to all. */
NodeSet
randomGroup(unsigned nodes, Rng &rng)
{
    NodeSet g(nodes);
    double density = rng.real();
    for (NodeId v = 0; v < nodes; ++v) {
        if (rng.chance(density))
            g.insert(v);
    }
    if (g.empty())
        g.insert(NodeId(rng.below(nodes)));
    return g;
}

/** The member walk the closed form replaced: every member's row and
 * input port at @p stage on its route to @p home. */
std::uint8_t
walkPattern(const Topology &topo, const NodeSet &group, NodeId home,
            unsigned stage, unsigned row)
{
    std::uint8_t pattern = 0;
    group.forEach([&](NodeId v) {
        if (topo.row(v, home, stage) == row)
            pattern |= std::uint8_t(1u << topo.routeDigit(v, stage));
    });
    return pattern;
}

TEST(GatherProperty, ResidueQueryMatchesBruteForce)
{
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    Rng rng(fuzzSeed() ^ 0x5e51d0e5);
    for (unsigned trial = 0; trial < 200; ++trial) {
        unsigned nodes = 1 + unsigned(rng.below(maxNodes));
        NodeSet set(nodes);
        // Sparse sets leave most classes empty, which is where a
        // wrong probe stride or fold shows.
        unsigned members = unsigned(rng.below(9));
        if (rng.chance(0.3))
            members = unsigned(rng.below(nodes + 1));
        for (unsigned i = 0; i < members; ++i)
            set.insert(NodeId(rng.below(nodes)));
        for (unsigned modulus = 1; modulus <= 4096; modulus *= 2) {
            std::uint64_t seen[4096 / 64] = {};
            set.forEach([&](NodeId v) {
                unsigned c = v % modulus;
                seen[c / 64] |= 1ull << (c % 64);
            });
            for (unsigned c = 0; c < modulus; ++c) {
                bool expect = (seen[c / 64] >> (c % 64)) & 1;
                if (set.hasResidue(c, modulus) != expect) {
                    ADD_FAILURE()
                        << "nodes=" << nodes << " members="
                        << set.count() << ": hasResidue(" << c << ", "
                        << modulus << ") should be " << expect;
                    return;
                }
            }
        }
    }
}

TEST(GatherProperty, InputResidueIsTheSourcesThatEnterOnThePort)
{
    // For every (stage, row) and a real destination the row routes
    // to, a source's path enters on input p exactly when the source
    // lies in p's residue class.
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    Rng rng(fuzzSeed() ^ 0x1a7e5);
    for (unsigned nodes : sizes) {
        Topology topo(nodes);
        unsigned stages = topo.stages();
        for (unsigned s = 0; s < stages; ++s) {
            unsigned low = 2 * (stages - s); // dst bits below row's
            for (unsigned r = 0; r < topo.rowsPerStage(); ++r) {
                unsigned prefix = r & ((1u << (2 * s)) - 1);
                unsigned first = prefix << low;
                if (first >= nodes)
                    continue; // routes only to unused endpoints
                unsigned end = std::min(nodes, (prefix + 1) << low);
                NodeId home = NodeId(first + rng.below(end - first));
                for (NodeId v = 0; v < nodes; ++v) {
                    bool enters = topo.row(v, home, s) == r;
                    for (unsigned p = 0; p < switchRadix; ++p) {
                        auto [residue, modulus] =
                            topo.inputResidue(s, r, p);
                        bool onPort =
                            enters && topo.routeDigit(v, s) == p;
                        if ((v % modulus == residue) != onPort) {
                            ADD_FAILURE()
                                << "nodes=" << nodes << " stage=" << s
                                << " row=" << r << " port=" << p
                                << " source=" << v;
                            return;
                        }
                    }
                }
            }
        }
    }
}

TEST(GatherProperty, WaitPatternMatchesMemberWalk)
{
    SCOPED_TRACE("CENJU_FUZZ_SEED=" + std::to_string(fuzzSeed()));
    Rng rng(fuzzSeed() ^ 0x6a7e);
    for (unsigned nodes : sizes) {
        EventQueue eq;
        NetConfig cfg;
        cfg.numNodes = nodes;
        Network net(eq, cfg);
        const Topology &topo = net.topology();
        for (unsigned g = 0; g < 4; ++g) {
            auto group =
                std::make_shared<const NodeSet>(randomGroup(nodes, rng));
            NodeId home = NodeId(rng.below(nodes));
            GatherPacket pkt;
            pkt.dest = DestSpec::unicast(home);
            pkt.gathered = true;
            pkt.gatherGroup = group;
            // Every switch on a route to home: its row's low s
            // digits are home's high s digits.
            for (unsigned s = 0; s < topo.stages(); ++s) {
                unsigned prefix = home >> (2 * (topo.stages() - s));
                for (unsigned r = 0; r < topo.rowsPerStage(); ++r) {
                    if ((r & ((1u << (2 * s)) - 1)) != prefix)
                        continue;
                    std::uint8_t expect =
                        walkPattern(topo, *group, home, s, r);
                    std::uint8_t got =
                        net.switchAt(s, r).gatherWaitPattern(pkt);
                    if (got != expect) {
                        ADD_FAILURE()
                            << "nodes=" << nodes << " members="
                            << group->count() << " home=" << home
                            << " stage=" << s << " row=" << r
                            << ": pattern " << unsigned(got)
                            << ", walk " << unsigned(expect);
                        return;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace cenju
