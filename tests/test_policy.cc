/**
 * @file
 * Coherence-policy conformance suite: the contract every protocol
 * backend must honor (src/policy/policy.hh), run across the full
 * policy x transport matrix — queuing, nack, and phase-priority on
 * the multistage fabric, the ideal pipe, and the direct transport.
 *
 * The backends are free to differ in *how* they arbitrate a
 * conflicted home (that contrast is bench/fig6_starvation's and
 * bench/ablation_protocol's subject); what must not differ is the
 * protocol semantics the rest of the stack depends on: every
 * request completes (no starvation, no lost retries), racing stores
 * serialize to one coherence order, quiesced directories hold no
 * pending state or stale reservation, and a sequential workload
 * produces identical memory contents on every backend.
 *
 * The cross-backend fuzz at the bottom honors CENJU_FUZZ_SEED so CI
 * (and a developer chasing a failure) can vary the workload without
 * recompiling.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.hh"
#include "memory/address_map.hh"
#include "node/dsm_node.hh"
#include "sim/rng.hh"
#include "transport/factory.hh"

namespace cenju
{
namespace
{

/** A small system over any policy x transport pair. */
struct PolicySys
{
    PolicySys(ProtocolKind p, TransportKind t, unsigned nodes,
              ProtoBug bug = ProtoBug::None)
    {
        NetConfig nc;
        nc.numNodes = nodes;
        net = makeTransport(t, eq, nc);
        ProtocolConfig pc;
        pc.protocol = p;
        pc.injectBug = bug;
        for (NodeId n = 0; n < nodes; ++n) {
            this->nodes.push_back(
                std::make_unique<DsmNode>(eq, *net, n, pc));
        }
        // The full PR 1 invariant catalog observes every engine
        // step (Collect mode, so a violation is reported with the
        // scenario that produced it instead of aborting the run).
        std::vector<DsmNode *> raw;
        for (auto &n : this->nodes)
            raw.push_back(n.get());
        checker = std::make_unique<check::RuntimeChecker>(
            raw, check::RuntimeChecker::OnViolation::Collect);
        for (auto &n : this->nodes)
            n->setCheckHook(checker.get());
        net->setCheckHook(checker.get());
    }

    ~PolicySys()
    {
        for (auto &n : nodes)
            n->setCheckHook(nullptr);
        net->setCheckHook(nullptr);
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

    /**
     * Quiescent-state audit shared by every scenario: no pending
     * directory states, no surviving reservation bit, no parked
     * requests — whatever the arbitration discipline was.
     */
    void
    checkQuiesced()
    {
        eq.run(); // drain trailing events (backend-dependent)
        ASSERT_TRUE(eq.empty()) << "system not quiescent";
        for (auto &home : nodes) {
            for (std::uint64_t blk = 0; blk < 4096; ++blk) {
                const DirectoryEntry *e =
                    home->home().directory().find(blk);
                if (!e)
                    continue;
                EXPECT_FALSE(isPending(e->state()))
                    << "home " << home->id() << " block " << blk;
                EXPECT_FALSE(e->reservation())
                    << "home " << home->id() << " block " << blk;
            }
            EXPECT_TRUE(home->home().requestQueue().empty())
                << "home " << home->id()
                << " quiesced with parked requests";
        }
        checker->checkQuiescent();
        for (const check::Violation &v : checker->violations())
            ADD_FAILURE() << "invariant [" << v.invariant
                          << "] @" << v.when << ": " << v.detail;
    }

    EventQueue eq;
    std::unique_ptr<Transport> net;
    std::vector<std::unique_ptr<DsmNode>> nodes;
    std::unique_ptr<check::RuntimeChecker> checker;
};

using PolicyParam = std::tuple<ProtocolKind, TransportKind>;

/** "phase-priority" -> "PhasePriority" for gtest instance names. */
std::string
camel(const char *s)
{
    std::string out;
    bool up = true;
    for (; *s; ++s) {
        if (*s == '-') {
            up = true;
            continue;
        }
        out += up ? char(std::toupper(*s)) : *s;
        up = false;
    }
    return out;
}

class PolicyConformance
    : public ::testing::TestWithParam<PolicyParam>
{
  protected:
    ProtocolKind policy() const { return std::get<0>(GetParam()); }
    TransportKind transport() const
    {
        return std::get<1>(GetParam());
    }
};

TEST_P(PolicyConformance, ReportsItsKindAndNameRoundTrips)
{
    // The table itself is checked in test_text.cc; here each node's
    // policy must report a name that parses back to its kind.
    PolicySys s(policy(), transport(), 4);
    for (auto &n : s.nodes) {
        EXPECT_EQ(n->policy().kind(), policy());
        ProtocolKind back{};
        ASSERT_TRUE(parseName(n->policy().name(), back));
        EXPECT_EQ(back, policy());
    }
}

TEST_P(PolicyConformance, SingleWriterPropagatesToAllReaders)
{
    PolicySys s(policy(), transport(), 4);
    Addr a = addr_map::makeShared(1, 0x100);
    s.store(0, a, 42);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(s.load(n, a), 42u) << "node " << n;
    s.checkQuiesced();
}

TEST_P(PolicyConformance, RacingStoresAllCompleteAndSerialize)
{
    PolicySys s(policy(), transport(), 8);
    Addr a = addr_map::makeShared(0, 0x700);
    unsigned done = 0;
    for (NodeId n = 0; n < 8; ++n)
        s.nodes[n]->master().store(a, 1000 + n,
                                   [&done] { ++done; });
    s.eq.run();
    EXPECT_EQ(done, 8u) << "a racing store starved";
    std::uint64_t final = s.load(0, a);
    EXPECT_GE(final, 1000u);
    EXPECT_LT(final, 1008u);
    // Every node agrees on the serialization winner.
    for (NodeId n = 1; n < 8; ++n)
        EXPECT_EQ(s.load(n, a), final) << "node " << n;
    s.checkQuiesced();
}

TEST_P(PolicyConformance, MixedRacesAcrossTwoHomesComplete)
{
    PolicySys s(policy(), transport(), 8);
    Addr a = addr_map::makeShared(0, 0x40);
    Addr b = addr_map::makeShared(1, 0x80);
    unsigned done = 0;
    for (NodeId n = 0; n < 8; ++n) {
        Addr target = (n % 2) ? a : b;
        s.nodes[n]->master().store(target, 500 + n,
                                   [&done] { ++done; });
        s.nodes[(n + 3) % 8]->master().load(
            target, [&done](std::uint64_t) { ++done; });
    }
    s.eq.run();
    EXPECT_EQ(done, 16u);
    s.checkQuiesced();
}

TEST_P(PolicyConformance, SustainedContentionIsStarvationFree)
{
    // Every node hammers one block for several rounds; the run must
    // terminate with every operation complete regardless of how the
    // backend arbitrates (queuing parks, nack retries, phase
    // priority sorts).
    PolicySys s(policy(), transport(), 8);
    Addr a = addr_map::makeShared(0, 0);
    unsigned completed = 0;
    constexpr unsigned rounds = 4;
    std::function<void(NodeId, unsigned)> kick =
        [&](NodeId n, unsigned left) {
            if (left == 0)
                return;
            s.nodes[n]->master().store(
                a, n * 100 + left, [&, n, left] {
                    ++completed;
                    kick(n, left - 1);
                });
        };
    for (NodeId n = 0; n < 8; ++n)
        kick(n, rounds);
    s.eq.run();
    EXPECT_EQ(completed, 8u * rounds);
    s.checkQuiesced();
}

TEST_P(PolicyConformance, BackendCountersMatchItsDiscipline)
{
    PolicySys s(policy(), transport(), 8);
    Addr a = addr_map::makeShared(0, 0x700);
    unsigned done = 0;
    for (NodeId n = 0; n < 8; ++n)
        s.nodes[n]->master().store(a, n, [&done] { ++done; });
    s.eq.run();
    ASSERT_EQ(done, 8u);
    std::uint64_t nacks = s.nodes[0]->home().nacksSent.value();
    std::uint64_t queued =
        s.nodes[0]->home().requestsQueued.value();
    std::uint64_t retries = 0;
    for (auto &node : s.nodes)
        retries += node->master().nackRetries.value();
    switch (policy()) {
      case ProtocolKind::Queuing:
      case ProtocolKind::PhasePriority:
        EXPECT_EQ(nacks, 0u);
        EXPECT_EQ(retries, 0u);
        EXPECT_GT(queued, 0u);
        break;
      case ProtocolKind::Nack:
        EXPECT_EQ(queued, 0u);
        EXPECT_GT(nacks, 0u);
        EXPECT_EQ(retries, nacks);
        break;
    }
}

TEST_P(PolicyConformance, EpochAdvancesPerNodeIndependently)
{
    PolicySys s(policy(), transport(), 4);
    for (auto &n : s.nodes)
        EXPECT_EQ(n->policy().epoch(), 0u);
    s.nodes[2]->policy().advanceEpoch();
    s.nodes[2]->policy().advanceEpoch();
    s.nodes[3]->policy().advanceEpoch();
    EXPECT_EQ(s.nodes[0]->policy().epoch(), 0u);
    EXPECT_EQ(s.nodes[2]->policy().epoch(), 2u);
    EXPECT_EQ(s.nodes[3]->policy().epoch(), 1u);
}

TEST_P(PolicyConformance, MixedEpochContentionStaysCoherent)
{
    // Nodes race from different phase epochs. Under phase-priority
    // the stragglers (epoch 0) overtake parked epoch-1 requests;
    // under queuing/nack the epochs are inert metadata. Either way
    // every request completes and the quiesced state is clean.
    PolicySys s(policy(), transport(), 8);
    for (NodeId n = 4; n < 8; ++n)
        s.nodes[n]->policy().advanceEpoch();
    Addr a = addr_map::makeShared(0, 0x40);
    Addr b = addr_map::makeShared(0, 0x80);
    unsigned done = 0;
    // Later-phase nodes pile on first so the early-phase requests
    // genuinely arrive at a conflicted home.
    for (NodeId n = 4; n < 8; ++n)
        s.nodes[n]->master().store((n % 2) ? a : b, 900 + n,
                                   [&done] { ++done; });
    for (NodeId n = 0; n < 4; ++n)
        s.nodes[n]->master().store((n % 2) ? a : b, 800 + n,
                                   [&done] { ++done; });
    s.eq.run();
    EXPECT_EQ(done, 8u);
    std::uint64_t va = s.load(0, a);
    std::uint64_t vb = s.load(0, b);
    for (NodeId n = 1; n < 8; ++n) {
        EXPECT_EQ(s.load(n, a), va);
        EXPECT_EQ(s.load(n, b), vb);
    }
    s.checkQuiesced();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PolicyConformance,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::Queuing,
                          ProtocolKind::Nack,
                          ProtocolKind::PhasePriority),
        ::testing::Values(TransportKind::Multistage,
                          TransportKind::Ideal,
                          TransportKind::Direct)),
    [](const ::testing::TestParamInfo<PolicyParam> &info) {
        return camel(nameOf(std::get<0>(info.param))) +
               "On" +
               camel(nameOf(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------
// Cross-backend fuzz: one sequential random workload, every
// backend, identical finals.
// ---------------------------------------------------------------

/** One random op applied through the blocking harness. */
struct FuzzOp
{
    enum Kind { Load, Store, Flush, Epoch } kind;
    NodeId node;
    unsigned block;
    std::uint64_t value;
};

std::vector<FuzzOp>
makeFuzzProgram(std::uint64_t seed, unsigned nodes,
                unsigned blocks, unsigned ops)
{
    Rng rng(seed);
    std::vector<FuzzOp> prog;
    std::uint64_t serial = 0;
    for (unsigned i = 0; i < ops; ++i) {
        FuzzOp op;
        // Epochs are rare (they only matter to phase-priority) and
        // loads/stores dominate.
        std::uint64_t k = rng.below(10);
        op.kind = k < 4 ? FuzzOp::Load
                  : k < 8 ? FuzzOp::Store
                  : k < 9 ? FuzzOp::Flush
                          : FuzzOp::Epoch;
        op.node = static_cast<NodeId>(rng.below(nodes));
        op.block = unsigned(rng.below(blocks));
        op.value = ++serial;
        prog.push_back(op);
    }
    return prog;
}

TEST(PolicyFuzz, SequentialWorkloadIdenticalAcrossBackends)
{
    // A sequential (each op runs to quiescence) workload has one
    // admissible outcome: the shadow model. Every policy backend on
    // every transport must match it load-for-load, and the final
    // block contents must agree across all nine combinations.
    std::uint64_t seed = 20260809;
    if (const char *env = std::getenv("CENJU_FUZZ_SEED"))
        seed = std::strtoull(env, nullptr, 10);
    constexpr unsigned nodes = 4, blocks = 3, ops = 160;
    auto prog = makeFuzzProgram(seed, nodes, blocks, ops);

    auto blockAddr = [](unsigned b) {
        return addr_map::makeShared(
            static_cast<NodeId>(b % nodes),
            Addr(b / nodes) * blockBytes);
    };

    std::vector<std::vector<std::uint64_t>> finals;
    for (ProtocolKind p :
         {ProtocolKind::Queuing, ProtocolKind::Nack,
          ProtocolKind::PhasePriority}) {
        for (TransportKind t :
             {TransportKind::Multistage, TransportKind::Ideal,
              TransportKind::Direct}) {
            SCOPED_TRACE(std::string(nameOf(p)) + " on " +
                         nameOf(t));
            PolicySys s(p, t, nodes);
            std::vector<std::uint64_t> shadow(blocks, 0);
            for (const FuzzOp &op : prog) {
                switch (op.kind) {
                  case FuzzOp::Load:
                    EXPECT_EQ(
                        s.load(op.node, blockAddr(op.block)),
                        shadow[op.block])
                        << "seed " << seed;
                    break;
                  case FuzzOp::Store:
                    s.store(op.node, blockAddr(op.block),
                            op.value);
                    shadow[op.block] = op.value;
                    break;
                  case FuzzOp::Flush:
                    s.nodes[op.node]->master().flushBlock(
                        blockAddr(op.block));
                    s.eq.run();
                    break;
                  case FuzzOp::Epoch:
                    s.nodes[op.node]->policy().advanceEpoch();
                    break;
                }
            }
            s.eq.run();
            s.checkQuiesced();
            std::vector<std::uint64_t> fin(blocks);
            for (unsigned b = 0; b < blocks; ++b) {
                fin[b] = s.load(0, blockAddr(b));
                EXPECT_EQ(fin[b], shadow[b])
                    << "block " << b << " seed " << seed;
            }
            finals.push_back(std::move(fin));
        }
    }
    for (std::size_t i = 1; i < finals.size(); ++i)
        EXPECT_EQ(finals[i], finals[0])
            << "backend " << i << " diverged, seed " << seed;
}

} // namespace
} // namespace cenju
