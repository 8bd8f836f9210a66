#include "fault/stress.hh"

#include <algorithm>
#include <sstream>

#include "core/dsm_system.hh"
#include "fault/injector.hh"
#include "node/dsm_node.hh"
#include "protocol/cache.hh"
#include "reliable/reliable_transport.hh"
#include "shard/sharded_engine.hh"
#include "sim/hashing.hh"
#include "sim/rng.hh"
#include "sim/text.hh"
#include "transport/net_config.hh"

namespace cenju::fault
{

StressCase
makeStressCase(std::uint64_t seed, const StressOptions &opts)
{
    Rng root(seed);
    Rng wrng = root.split(1);  // workload stream
    Rng frng = root.split(2);  // fault stream
    Rng srng = root.split(3);  // system-parameter stream

    StressCase c;
    c.nodes = opts.nodes;
    c.transport = opts.transport;
    c.protocol = opts.protocol;
    c.bug = opts.bug;
    // Small crosspoint buffers tighten back-pressure so fault
    // windows actually bite.
    c.xbCapacity = 2 + unsigned(srng.below(3));

    // Random cases rotate over the first numRandomStressPatterns
    // only (hot-spot shifts digests; it is opt-in via --pattern).
    c.workload.pattern = opts.patternFixed
        ? opts.pattern
        : static_cast<StressPattern>(
              srng.below(numRandomStressPatterns));
    c.workload.blocks = 2 + unsigned(srng.below(5));
    c.workload.opsPerNode = 16 + unsigned(srng.below(33));
    c.workload.rounds = 2 + unsigned(srng.below(2));
    c.workload.seed = wrng.next();

    PlanShape shape;
    shape.nodes = c.nodes;
    // The fabric's own stage rule, so plan targets land on real
    // switches without clamping.
    shape.stages = NetConfig::defaultStages(c.nodes);
    shape.rows = 1u << (2 * (shape.stages - 1));
    c.plan = randomPlan(frng, shape);

    c.reliability = opts.reliability;
    if (opts.lossy) {
        // Loss events come from their own stream (split 4) so lossy
        // mode never shifts the legal-fault draws above, and the
        // fault-free baseline of a lossy case is simply the same
        // case with the loss events stripped.
        c.reliability = ReliabilityKind::E2e;
        Rng lrng = root.split(4);
        FaultPlan loss = randomLossPlan(lrng, shape);
        c.plan.events.insert(c.plan.events.end(),
                             loss.events.begin(),
                             loss.events.end());
    }
    return c;
}

namespace
{

/**
 * Forwarding CheckHook computing an FNV-1a digest over every engine
 * step. Two runs with equal digests observed the same steps in the
 * same order — the replay-fidelity certificate.
 */
class DigestHook : public check::CheckHook
{
  public:
    explicit DigestHook(check::CheckHook *inner) : _inner(inner) {}

    void
    onStep(check::StepKind kind, NodeId at, Addr addr) override
    {
        _h = fnvMix(_h, static_cast<std::uint64_t>(kind));
        _h = fnvMix(_h, at);
        _h = fnvMix(_h, addr);
        ++_steps;
        if (_inner)
            _inner->onStep(kind, at, addr);
    }

    std::uint64_t digest() const { return _h; }
    std::uint64_t steps() const { return _steps; }

  private:
    check::CheckHook *_inner;
    std::uint64_t _h = fnvBasis;
    std::uint64_t _steps = 0;
};

/**
 * Fold every word of @p arr's coherent final value into @p h
 * (FNV-1a). The coherent value of a block is its M/E cached copy if
 * one exists, else home memory — the same rule the invariant
 * checker's clean-value check applies.
 */
void
mixCoherentWords(std::uint64_t &h, DsmSystem &sys,
                 const std::vector<DsmNode *> &nodes,
                 const ShmArray &arr)
{
    for (std::size_t i = 0; i < arr.size(); ++i) {
        Addr a = arr.addrOf(i);
        Addr block_addr = blockBase(a);
        Block val;
        bool cached = false;
        for (DsmNode *node : nodes) {
            const CacheLine *line =
                node->cache().lookup(block_addr);
            if (line && (line->state == CacheState::Modified ||
                         line->state == CacheState::Exclusive)) {
                val = line->data;
                cached = true;
                break;
            }
        }
        if (!cached) {
            NodeId home = addr_map::homeNode(block_addr);
            val = sys.node(home).sharedMem().readBlock(
                addr_map::localBlock(block_addr));
        }
        h = fnvMix(h, val.w[(a - block_addr) / 8]);
    }
}

} // namespace

StressResult
runStressCase(const StressCase &c, std::uint64_t eventBudget,
              unsigned shards)
{
    SystemConfig cfg;
    cfg.numNodes = c.nodes;
    cfg.xbCapacity = c.xbCapacity;
    cfg.transport = c.transport;
    cfg.reliability = c.reliability;
    cfg.shards = shards;
    cfg.proto.protocol = c.protocol;
    cfg.proto.injectBug = c.bug;
    // The harness owns checking (Collect mode, so a violating run
    // finishes and can be shrunk); keep the system's Panic checker
    // off.
    cfg.proto.runtimeChecks = false;

    DsmSystem sys(cfg);
    shard::ShardedEngine *eng = sys.shardedEngine();

    std::vector<DsmNode *> raw;
    raw.reserve(c.nodes);
    for (NodeId n = 0; n < c.nodes; ++n)
        raw.push_back(&sys.node(n));
    check::RuntimeChecker checker(
        raw, check::RuntimeChecker::OnViolation::Collect);
    // Sequential runs digest through the forwarding hook (with
    // per-step invariant checking inside); sharded runs record
    // steps per shard and digest them in recovered global order at
    // window barriers, checking invariants at quiescence only.
    DigestHook digest(&checker);
    check::CheckHook *hook = eng ? eng->checkHook() : &digest;
    for (NodeId n = 0; n < c.nodes; ++n)
        sys.node(n).setCheckHook(hook);
    sys.transport().setCheckHook(hook);

    // A dead link (retry budget exhausted) must become a replayable
    // failure verdict, not a fatal() — the shrinker needs the run to
    // return.
    bool linkDead = false;
    if (ReliableTransport *rel = sys.reliableLayer())
        rel->setLinkDeadHandler(
            [&linkDead](NodeId, NodeId) { linkDead = true; });

    FaultInjector injector(sys);
    injector.arm(c.plan);

    ShmArray arr = sys.shmAlloc(
        std::size_t(c.workload.blocks) * ShmArray::wordsPerBlock,
        Mapping::blockCyclic());
    ShmArray sync;
    if (c.workload.pattern == StressPattern::HotSpot)
        sync = sys.shmAllocCombinable(hotSpotSyncWords);
    auto program = makeStressProgram(c.workload, arr, sync);

    // Starvation and the budget are verdicts here, not fatals.
    BoundedRun run = sys.runBounded(
        std::vector<DsmSystem::Program>(c.nodes, program),
        eventBudget);
    StressResult res;
    res.completed = run.completed;
    res.budgetHit = run.budgetHit;
    res.events = run.events;
    res.digest = eng ? eng->digest() : digest.digest();
    res.steps = eng ? eng->digestSteps() : digest.steps();

    res.linkDead = linkDead;
    if (res.completed) {
        checker.checkQuiescent();
    } else {
        res.stallDiagnosis = check::diagnoseStall(raw);
        if (linkDead)
            res.stallDiagnosis =
                "reliable: a link exhausted its retry budget "
                "(link declared dead)\n" +
                res.stallDiagnosis;
    }

    res.memFingerprint = fnvBasis;
    mixCoherentWords(res.memFingerprint, sys, raw, arr);
    if (sync.size() != 0)
        mixCoherentWords(res.memFingerprint, sys, raw, sync);

    if (ReliableTransport *rel = sys.reliableLayer()) {
        res.retransmits = rel->retransmits.value();
        res.dupDiscards = rel->dupDiscards.value();
        res.checksumRejects = rel->checksumRejects.value();
    }

    res.violations = checker.violations();
    res.faultWindows = injector.openedWindows();
    return res;
}

namespace
{

bool
stillFails(const StressCase &c, std::uint64_t budget,
           ShrinkStats &st)
{
    ++st.runs;
    return runStressCase(c, budget).failed();
}

/** ddmin-lite: drop chunks of plan events while the case fails. */
bool
shrinkPlan(StressCase &c, std::uint64_t budget, unsigned maxRuns,
           ShrinkStats &st)
{
    bool changed = false;
    std::size_t chunk = std::max<std::size_t>(
        1, c.plan.events.size() / 2);
    while (chunk >= 1 && st.runs < maxRuns) {
        bool removed = false;
        for (std::size_t i = 0;
             i < c.plan.events.size() && st.runs < maxRuns;) {
            StressCase cand = c;
            auto begin = cand.plan.events.begin() +
                         static_cast<std::ptrdiff_t>(i);
            auto end = begin + static_cast<std::ptrdiff_t>(
                std::min(chunk, cand.plan.events.size() - i));
            cand.plan.events.erase(begin, end);
            if (stillFails(cand, budget, st)) {
                ++st.accepts;
                c = std::move(cand);
                removed = true;
                changed = true;
                // i now points at the next unexamined chunk
            } else {
                i += chunk;
            }
        }
        if (chunk == 1)
            break;
        if (!removed)
            chunk = std::max<std::size_t>(1, chunk / 2);
    }
    return changed;
}

/** Try one scalar reduction; keep it if the case still fails. */
template <typename Apply>
bool
tryReduce(StressCase &c, std::uint64_t budget, ShrinkStats &st,
          Apply apply)
{
    StressCase cand = c;
    if (!apply(cand))
        return false; // already minimal
    if (!stillFails(cand, budget, st))
        return false;
    ++st.accepts;
    c = std::move(cand);
    return true;
}

bool
shrinkScalars(StressCase &c, std::uint64_t budget, unsigned maxRuns,
              ShrinkStats &st)
{
    bool changed = false;
    bool progress = true;
    while (progress && st.runs < maxRuns) {
        progress = false;
        progress |= tryReduce(c, budget, st, [](StressCase &x) {
            if (x.workload.rounds <= 1)
                return false;
            x.workload.rounds = (x.workload.rounds + 1) / 2;
            return true;
        });
        progress |= tryReduce(c, budget, st, [](StressCase &x) {
            if (x.workload.opsPerNode <= 1)
                return false;
            x.workload.opsPerNode = (x.workload.opsPerNode + 1) / 2;
            return true;
        });
        progress |= tryReduce(c, budget, st, [](StressCase &x) {
            if (x.workload.blocks <= 1)
                return false;
            x.workload.blocks = (x.workload.blocks + 1) / 2;
            return true;
        });
        progress |= tryReduce(c, budget, st, [](StressCase &x) {
            if (x.nodes <= 2)
                return false;
            x.nodes = std::max(2u, x.nodes / 2);
            return true;
        });
        changed |= progress;
    }
    return changed;
}

} // namespace

StressCase
shrinkCase(const StressCase &failing, std::uint64_t eventBudget,
           unsigned maxRuns, ShrinkStats *stats)
{
    ShrinkStats st;
    StressCase c = failing;
    bool progress = true;
    while (progress && st.runs < maxRuns) {
        progress = false;
        progress |= shrinkPlan(c, eventBudget, maxRuns, st);
        progress |= shrinkScalars(c, eventBudget, maxRuns, st);
    }
    if (stats)
        *stats = st;
    return c;
}

std::string
serializeCase(const StressCase &c)
{
    // The schema is versioned so an old binary rejects a reproducer
    // it cannot faithfully replay instead of silently dropping
    // fields. v2 adds the reliability key and loss-fault lines; a
    // case using neither serializes as v1, byte-identical to before,
    // so committed reproducers and goldens are untouched.
    bool v2 = c.reliability != ReliabilityKind::Off ||
              planHasLossFaults(c.plan);
    std::ostringstream os;
    os << (v2 ? "stresscase v2\n" : "stresscase v1\n");
    os << "nodes " << c.nodes << "\n";
    os << "xbcap " << c.xbCapacity << "\n";
    os << "transport " << nameOf(c.transport) << "\n";
    os << "protocol " << nameOf(c.protocol) << "\n";
    if (v2)
        os << "reliability " << nameOf(c.reliability) << "\n";
    os << "bug " << nameOf(c.bug) << "\n";
    os << "pattern " << nameOf(c.workload.pattern) << "\n";
    os << "blocks " << c.workload.blocks << "\n";
    os << "ops " << c.workload.opsPerNode << "\n";
    os << "rounds " << c.workload.rounds << "\n";
    os << "wseed " << c.workload.seed << "\n";
    for (const FaultEvent &e : c.plan.events)
        os << serializeFaultEvent(e) << "\n";
    os << "end\n";
    return os.str();
}

bool
applyCaseKey(StressCase &c, const std::string &key,
             const std::string &value, std::string &err)
{
    auto set = [&](auto &field) {
        if (parseValue(value, field))
            return true;
        err = "bad value for '" + key + "': " + value;
        return false;
    };
    if (key == "nodes")
        return set(c.nodes);
    if (key == "xbcap")
        return set(c.xbCapacity);
    if (key == "transport")
        return set(c.transport);
    if (key == "protocol")
        return set(c.protocol);
    if (key == "reliability")
        return set(c.reliability);
    if (key == "bug")
        return set(c.bug);
    if (key == "pattern")
        return set(c.workload.pattern);
    if (key == "blocks")
        return set(c.workload.blocks);
    if (key == "ops")
        return set(c.workload.opsPerNode);
    if (key == "rounds")
        return set(c.workload.rounds);
    if (key == "wseed")
        return set(c.workload.seed);
    err = "unknown key '" + key + "'";
    return false;
}

bool
parseCase(const std::string &text, StressCase &out, std::string &err)
{
    std::istringstream is(text);
    std::string line;
    bool sawHeader = false;
    bool sawEnd = false;
    unsigned schema = 0;
    out = StressCase{};
    out.plan.events.clear();
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (!sawHeader) {
            std::string version;
            ls >> version;
            if (key != "stresscase" ||
                (version != "v1" && version != "v2")) {
                // Reject unknown versions loudly: a future schema
                // may carry fields this binary would silently drop,
                // making the "reproducer" replay a different case.
                err = "expected 'stresscase v1' or 'stresscase v2' "
                      "header, got '" +
                      line + "'";
                return false;
            }
            schema = version == "v1" ? 1 : 2;
            sawHeader = true;
            continue;
        }
        if (key == "end") {
            sawEnd = true;
            break;
        }
        if (key == "fault") {
            FaultEvent e;
            if (!parseFaultEvent(line, e, err))
                return false;
            if (schema < 2 && isLossFault(e.kind)) {
                err = "loss fault in a v1 reproducer (v2 carries "
                      "the reliability mode they require): " +
                      line;
                return false;
            }
            out.plan.events.push_back(e);
            continue;
        }
        if (schema < 2 && key == "reliability") {
            err = "'reliability' key in a v1 reproducer: " + line;
            return false;
        }
        std::string value;
        if (!(ls >> value)) {
            err = "missing value for '" + key + "'";
            return false;
        }
        if (!applyCaseKey(out, key, value, err))
            return false;
    }
    if (!sawHeader) {
        err = "empty reproducer";
        return false;
    }
    if (!sawEnd) {
        err = "missing 'end' line";
        return false;
    }
    if (out.nodes < 2 || out.workload.blocks == 0) {
        err = "degenerate configuration";
        return false;
    }
    if (planHasLossFaults(out.plan) &&
        out.reliability != ReliabilityKind::E2e) {
        err = "plan contains loss faults but reliability is not "
              "e2e (no bare backend can replay it)";
        return false;
    }
    return true;
}

} // namespace cenju::fault
