#include "check/explorer.hh"

#include <deque>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "network/network.hh"
#include "node/dsm_node.hh"

namespace cenju::check
{

namespace
{

/** A minimal system rebuilt for every replay (no SPMD layers). */
struct ReplaySys
{
    explicit ReplaySys(const CheckConfig &cfg)
    {
        ProtocolConfig pc;
        pc.protocol = cfg.protocol;
        pc.injectBug = cfg.bug;
        pc.runtimeChecks = false; // the explorer attaches its own
        NetConfig nc;
        nc.numNodes = cfg.nodes;
        net = std::make_unique<Network>(eq, nc);
        for (NodeId n = 0; n < cfg.nodes; ++n) {
            nodes.push_back(std::make_unique<DsmNode>(
                eq, *net, n, pc));
        }
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

/** Completion tracking for one batch's operations. */
struct OpStatus
{
    bool done = false;
    bool isLoad = false;
    std::uint64_t value = 0;
};

void
issueOp(ReplaySys &sys, const CheckConfig &cfg, const Op &op,
        OpStatus &st)
{
    Addr addr = blockAddress(cfg, op.block);
    MasterModule &m = sys.nodes[op.node]->master();
    switch (op.kind) {
      case OpKind::Load:
        st.isLoad = true;
        m.load(addr, [&st](std::uint64_t v) {
            st.value = v;
            st.done = true;
        });
        break;
      case OpKind::Store:
        m.store(addr, op.value, [&st] { st.done = true; });
        break;
      case OpKind::Flush:
        m.flushBlock(addr);
        st.done = true; // the writeback itself drains with the queue
        break;
      case OpKind::Epoch:
        // What Env::barrier() does on completion: advance the
        // node's phase epoch. Schedules nothing.
        sys.nodes[op.node]->policy().advanceEpoch();
        st.done = true;
        break;
    }
}

/**
 * The value a load issued *after* this instant must observe: the
 * home's view once the system quiesced (memory when Clean, the
 * owner's copy when Dirty).
 */
std::uint64_t
authoritativeValue(ReplaySys &sys, const CheckConfig &cfg,
                   unsigned block)
{
    Addr addr = blockAddress(cfg, block);
    NodeId h = addr_map::homeNode(addr);
    std::uint64_t blk = addr_map::localBlock(addr);
    const DirectoryEntry *e =
        sys.nodes[h]->home().directory().find(blk);
    if (e && e->state() == MemState::Dirty) {
        NodeId owner = e->map().decode(cfg.nodes).first();
        if (owner != invalidNode) {
            const CacheLine *line =
                sys.nodes[owner]->cache().lookup(addr);
            if (line)
                return line->data.w[0];
        }
    }
    return sys.nodes[h]->sharedMem().readBlock(blk).w[0];
}

/**
 * Canonical fingerprint of a quiescent system: per-block cache and
 * directory state with data values renumbered by first appearance
 * (the protocol never branches on values, so the quotient is exact).
 */
std::string
fingerprint(ReplaySys &sys, const CheckConfig &cfg)
{
    std::ostringstream os;
    std::unordered_map<std::uint64_t, unsigned> ids;
    auto canon = [&ids](std::uint64_t v) {
        auto [it, fresh] =
            ids.emplace(v, static_cast<unsigned>(ids.size()));
        (void)fresh;
        return it->second;
    };

    for (unsigned b = 0; b < cfg.blocks; ++b) {
        Addr addr = blockAddress(cfg, b);
        NodeId h = addr_map::homeNode(addr);
        std::uint64_t blk = addr_map::localBlock(addr);

        os << "b" << b << ":";
        for (auto &node : sys.nodes) {
            const CacheLine *line = node->cache().lookup(addr);
            if (!line) {
                os << "-";
            } else {
                os << static_cast<int>(line->state) << "."
                   << canon(line->data.w[0]);
            }
            os << ",";
        }
        const DirectoryEntry *e =
            sys.nodes[h]->home().directory().find(blk);
        if (!e) {
            os << "d-";
        } else {
            os << "d" << static_cast<int>(e->state())
               << (e->reservation() ? "R" : "");
            e->map().decode(cfg.nodes).forEach(
                [&os](NodeId n) { os << "s" << n; });
        }
        os << "m"
           << canon(sys.nodes[h]->sharedMem().readBlock(blk).w[0]);
        os << ";";
    }
    if (cfg.protocol == ProtocolKind::PhasePriority) {
        // Raw per-node epochs. They cannot be canonicalized the way
        // values are: the home orders parked requests by epoch
        // *difference*, so (0,2) and (0,1) are genuinely distinct
        // states — renumbering would merge them and miss behaviour.
        // maxPhase bounds them, keeping the space finite.
        os << "e";
        for (auto &node : sys.nodes)
            os << node->policy().epoch() << ",";
    }
    return os.str();
}

/** Outcome of replaying one full trace. */
struct ReplayOutcome
{
    ReplayReport report;
    std::string state; ///< fingerprint; empty unless report.ok()
};

ReplayOutcome
runTrace(const Trace &t, std::uint64_t event_budget)
{
    ReplayOutcome out;
    ReplaySys sys(t.cfg);
    RuntimeChecker checker(sys.nodePtrs(),
                           RuntimeChecker::OnViolation::Collect);
    for (auto &node : sys.nodes)
        node->setCheckHook(&checker);
    sys.net->setCheckHook(&checker);

    // Write-serial shadow: the last value committed per block.
    std::vector<std::uint64_t> last(t.cfg.blocks, 0);

    for (const auto &batch : t.batches) {
        std::vector<OpStatus> status(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            issueOp(sys, t.cfg, batch[i], status[i]);

        std::uint64_t budget = event_budget;
        while (!sys.eq.empty() && budget > 0) {
            sys.eq.runOne();
            --budget;
        }
        if (!sys.eq.empty()) {
            out.report.completed = false;
            out.report.violations.push_back(Violation{
                "liveness",
                "event budget exhausted (livelock?) after " +
                    std::to_string(event_budget) + " events",
                sys.eq.now()});
            out.report.stallDiagnosis =
                diagnoseStall(sys.nodePtrs());
            break;
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!status[i].done) {
                out.report.completed = false;
                out.report.violations.push_back(Violation{
                    "liveness",
                    std::string(nameOf(batch[i].kind)) +
                        " n" + std::to_string(batch[i].node) +
                        " b" + std::to_string(batch[i].block) +
                        " never completed (starved)",
                    sys.eq.now()});
            }
        }
        if (!out.report.completed) {
            out.report.stallDiagnosis =
                diagnoseStall(sys.nodePtrs());
            break;
        }

        // Value coherence: a load sees the previous committed value
        // or a serial racing with it in this very batch.
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Op &op = batch[i];
            if (!status[i].isLoad)
                continue;
            bool admissible = status[i].value == last[op.block];
            for (const Op &other : batch) {
                if (other.kind == OpKind::Store &&
                    other.block == op.block &&
                    other.value == status[i].value)
                    admissible = true;
            }
            if (!admissible) {
                out.report.violations.push_back(Violation{
                    "value-coherence",
                    "load n" + std::to_string(op.node) + " b" +
                        std::to_string(op.block) + " returned " +
                        std::to_string(status[i].value) +
                        ", admissible was " +
                        std::to_string(last[op.block]) +
                        " or a racing serial of its batch",
                    sys.eq.now()});
            }
        }

        // Commit: the quiesced system resolves any racing stores.
        for (unsigned b = 0; b < t.cfg.blocks; ++b) {
            std::uint64_t v = authoritativeValue(sys, t.cfg, b);
            bool admissible = v == last[b];
            for (const Op &op : batch) {
                if (op.kind == OpKind::Store && op.block == b &&
                    op.value == v)
                    admissible = true;
            }
            if (!admissible) {
                out.report.violations.push_back(Violation{
                    "value-coherence",
                    "block " + std::to_string(b) +
                        " quiesced holding " + std::to_string(v) +
                        ", which no store of this batch wrote",
                    sys.eq.now()});
            }
            last[b] = v;
        }

        checker.checkQuiescent();
        if (!checker.violations().empty())
            break;
    }

    for (const Violation &v : checker.violations())
        out.report.violations.push_back(v);
    out.report.hookSteps = checker.steps();
    if (out.report.ok())
        out.state = fingerprint(sys, t.cfg);
    for (auto &node : sys.nodes)
        node->setCheckHook(nullptr);
    sys.net->setCheckHook(nullptr);
    return out;
}

/** All batches the explorer tries from every state. */
std::vector<std::vector<Op>>
transitionBatches(const ExplorerOptions &opt)
{
    const CheckConfig &cfg = opt.cfg;
    std::vector<Op> ops;
    for (NodeId n = 0; n < cfg.nodes; ++n) {
        for (unsigned b = 0; b < cfg.blocks; ++b) {
            ops.push_back(Op{OpKind::Load, n, b, 0});
            ops.push_back(Op{OpKind::Store, n, b, 0});
            ops.push_back(Op{OpKind::Flush, n, b, 0});
        }
    }
    std::vector<std::vector<Op>> batches;
    for (const Op &op : ops)
        batches.push_back({op});
    if (opt.concurrency >= 2) {
        // Ordered pairs from distinct nodes: racing requests that
        // exercise the queuing/reservation machinery.
        for (const Op &a : ops) {
            for (const Op &b : ops) {
                if (a.node != b.node)
                    batches.push_back({a, b});
            }
        }
    }
    if (cfg.protocol == ProtocolKind::PhasePriority &&
        opt.maxPhase > 0) {
        // Epoch advances as their own transitions (what a barrier
        // does); the explore loop bounds how many each node takes.
        for (NodeId n = 0; n < cfg.nodes; ++n)
            batches.push_back({Op{OpKind::Epoch, n, 0, 0}});
    }
    return batches;
}

/** Epoch advances node @p n has already taken in @p t. */
unsigned
epochCount(const Trace &t, NodeId n)
{
    unsigned c = 0;
    for (const auto &batch : t.batches) {
        for (const Op &op : batch) {
            if (op.kind == OpKind::Epoch && op.node == n)
                ++c;
        }
    }
    return c;
}

unsigned
storeCount(const Trace &t)
{
    unsigned n = 0;
    for (const auto &batch : t.batches) {
        for (const Op &op : batch) {
            if (op.kind == OpKind::Store)
                ++n;
        }
    }
    return n;
}

} // namespace

ReplayReport
replayTrace(const Trace &t, std::uint64_t event_budget)
{
    return runTrace(t, event_budget).report;
}

ExploreResult
explore(const ExplorerOptions &opt, std::ostream *progress)
{
    ExploreResult res;
    const auto batches = transitionBatches(opt);

    Trace root;
    root.cfg = opt.cfg;
    ReplayOutcome init = runTrace(root, opt.eventBudget);
    if (!init.report.ok()) {
        // Even the idle system violates something: report it.
        res.counterexamples.push_back(Counterexample{
            root, init.report.violations,
            init.report.stallDiagnosis});
        return res;
    }

    std::unordered_set<std::string> seen{init.state};
    std::deque<Trace> frontier{root};
    res.statesVisited = 1;
    bool truncated = false;

    while (!frontier.empty()) {
        Trace state = std::move(frontier.front());
        frontier.pop_front();
        if (opt.maxDepth != 0 &&
            state.batches.size() >= opt.maxDepth) {
            truncated = true;
            continue;
        }

        for (const auto &batch : batches) {
            if (batch.size() == 1 &&
                batch[0].kind == OpKind::Epoch &&
                epochCount(state, batch[0].node) >= opt.maxPhase)
                continue; // per-node phase bound reached
            Trace child = state;
            child.batches.push_back(batch);
            unsigned serial = storeCount(state);
            for (Op &op : child.batches.back()) {
                if (op.kind == OpKind::Store)
                    op.value = ++serial;
            }

            ReplayOutcome out = runTrace(child, opt.eventBudget);
            ++res.transitions;
            res.hookSteps += out.report.hookSteps;

            if (!out.report.ok()) {
                res.counterexamples.push_back(Counterexample{
                    std::move(child), out.report.violations,
                    out.report.stallDiagnosis});
                if (opt.stopAtFirstViolation)
                    return res;
                continue;
            }
            if (seen.insert(out.state).second) {
                ++res.statesVisited;
                res.maxTraceDepth = std::max<std::uint64_t>(
                    res.maxTraceDepth, child.batches.size());
                frontier.push_back(std::move(child));
                if (opt.maxStates != 0 &&
                    res.statesVisited >= opt.maxStates) {
                    res.exhausted = false;
                    return res;
                }
            }
            if (progress != nullptr &&
                res.transitions % 5000 == 0) {
                *progress << "  ... " << res.statesVisited
                          << " states / " << res.transitions
                          << " transitions\n";
            }
        }
    }
    res.exhausted = !truncated;
    return res;
}

} // namespace cenju::check
