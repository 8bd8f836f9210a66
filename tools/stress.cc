/**
 * @file
 * Fault-injection stress CLI (docs/TESTING.md).
 *
 * Runs randomized multi-node workloads under random-but-legal fault
 * plans with the invariant catalog attached, prints the failing seed
 * on any violation or starvation, replays any seed bit-identically,
 * and shrinks a failing case to a minimal text reproducer:
 *
 *   stress --seeds 200                        # sweep, expect clean
 *   stress --seed 7341                        # one seed, verbose
 *   stress --replay 7341                      # prove determinism
 *   stress --bug skip-reservation --seeds 60 \
 *          --expect-caught --out repro.case   # mutation check
 *   stress --replay-file repro.case           # rerun a reproducer
 *   stress --seeds 200 --jobs 0 \
 *          --golden tests/golden/stress_digests_16.txt  # certify
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fault/stress.hh"
#include "sim/thread_pool.hh"
#include "cli.hh"

using namespace cenju;
using namespace cenju::fault;

namespace
{

int
usage(const char *argv0)
{
    const StressOptions pinned;
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seeds N        seeds to sweep (default 50)\n"
        "  --seed-base S    first seed of the sweep (default 1)\n"
        "  --seed S         run exactly one seed, verbose\n"
        "  --nodes N        system size (default 16)\n"
        "  --pattern P      %s\n"
        "                   (default: drawn per seed, excluding\n"
        "                   hot-spot, the combinable-atomics storm)\n"
        "  --bug B          %s (default %s)\n"
        "  --transport T    interconnect backend: %s\n"
        "                   (default %s)\n"
        "  --protocol P     coherence backend: %s\n"
        "                   (default %s)\n"
        "  --reliability R  delivery guarantee: %s (e2e is the\n"
        "                   retransmit decorator over the transport;\n"
        "                   default %s)\n"
        "                   The three backend defaults are pinned:\n"
        "                   CENJU_TRANSPORT, CENJU_PROTOCOL and\n"
        "                   CENJU_RELIABILITY do not apply here, so\n"
        "                   digests do not depend on the environment\n"
        "  --lossy          adversarial loss mode: reliability on,\n"
        "                   random drop/dup/corrupt windows per\n"
        "                   seed, finals compared bit-for-bit with\n"
        "                   the fault-free run of the same seed\n"
        "  --set K=V        override a generated case field, using\n"
        "                   the reproducer keys (nodes, xbcap,\n"
        "                   transport, protocol, reliability, bug,\n"
        "                   pattern, blocks, ops, rounds, wseed);\n"
        "                   repeatable\n"
        "  --budget N       per-run event budget (default %llu)\n"
        "  --replay S       run seed S twice, compare digests\n"
        "  --replay-file F  rerun a serialized reproducer\n"
        "  --no-shrink      skip minimization of a failing case\n"
        "  --jobs N         parallel workers for seed sweeps\n"
        "                   (default 1; 0 = hardware threads)\n"
        "  --shards N       simulation shards per run (default 1;\n"
        "                   digests are bit-identical across shard\n"
        "                   counts, see docs/ARCHITECTURE.md)\n"
        "  --expect-caught  exit 0 iff the sweep found a failure\n"
        "  --out FILE       write the minimal reproducer to FILE\n"
        "  --golden FILE    compare each swept seed's digest with\n"
        "                   FILE's 'seed digest' lines (unlisted\n"
        "                   seeds skipped); exit 1 on a mismatch\n"
        "                   or if FILE lists none of the seeds\n"
        "  --digests-out F  write 'seed digest' per swept seed\n"
        "                   --golden and --digests-out apply to\n"
        "                   the plain seed sweep only\n",
        argv0, nameList<StressPattern>().c_str(),
        nameList<ProtoBug>().c_str(), nameOf(pinned.bug),
        nameList<TransportKind>().c_str(), nameOf(pinned.transport),
        nameList<ProtocolKind>().c_str(), nameOf(pinned.protocol),
        nameList<ReliabilityKind>().c_str(),
        nameOf(pinned.reliability),
        (unsigned long long)defaultEventBudget);
    return 2;
}

void
printResult(std::uint64_t seed, const StressCase &c,
            const StressResult &r)
{
    std::printf("seed %llu: pattern=%s nodes=%u xbcap=%u blocks=%u "
                "ops=%u rounds=%u faults=%zu | %s, %llu steps, "
                "%llu events, %u windows, digest=%016llx\n",
                (unsigned long long)seed,
                nameOf(c.workload.pattern), c.nodes,
                c.xbCapacity, c.workload.blocks,
                c.workload.opsPerNode, c.workload.rounds,
                c.plan.events.size(),
                r.completed ? "completed"
                            : (r.budgetHit ? "BUDGET" : "STARVED"),
                (unsigned long long)r.steps,
                (unsigned long long)r.events, r.faultWindows,
                (unsigned long long)r.digest);
    if (r.retransmits || r.dupDiscards || r.checksumRejects ||
        r.linkDead)
        std::printf("  reliable: %llu retransmits, %llu dup "
                    "discards, %llu checksum rejects%s\n",
                    (unsigned long long)r.retransmits,
                    (unsigned long long)r.dupDiscards,
                    (unsigned long long)r.checksumRejects,
                    r.linkDead ? ", LINK DEAD" : "");
    for (const check::Violation &v : r.violations) {
        std::printf("  violated [%s] @%llu: %s\n",
                    v.invariant.c_str(),
                    (unsigned long long)v.when, v.detail.c_str());
    }
    if (!r.stallDiagnosis.empty())
        std::printf("stall diagnosis:\n%s",
                    r.stallDiagnosis.c_str());
}

struct Options
{
    std::uint64_t seeds = 50;
    std::uint64_t seedBase = 1;
    std::uint64_t budget = defaultEventBudget;
    bool singleSeed = false;
    std::uint64_t seed = 0;
    bool replay = false;
    std::string replayFile;
    bool shrink = true;
    bool expectCaught = false;
    unsigned jobs = 1;
    unsigned shards = 1;
    std::string outFile;
    std::string goldenFile;
    std::string digestsOut;
    /** --set overrides, applied to every case after derivation. */
    std::vector<std::pair<std::string, std::string>> overrides;
    StressOptions gen;
};

/** Derive the case for @p seed and apply the --set overrides. */
StressCase
caseFor(std::uint64_t seed, const Options &opt)
{
    StressCase c = makeStressCase(seed, opt.gen);
    for (const auto &[key, value] : opt.overrides) {
        std::string err;
        if (!applyCaseKey(c, key, value, err)) {
            std::fprintf(stderr, "--set %s=%s: %s\n", key.c_str(),
                         value.c_str(), err.c_str());
            std::exit(2);
        }
    }
    return c;
}

/** Shrink, report, and optionally save a failing case. */
void
handleFailure(std::uint64_t seed, const StressCase &c,
              const Options &opt)
{
    // Shrinking (and the minimal-case rerun) always executes
    // sequentially: per-step invariant checks only exist there, so
    // the verdicts driving the shrink stay maximally sensitive.
    StressCase minimal = c;
    if (opt.shrink) {
        ShrinkStats st;
        minimal = shrinkCase(c, opt.budget, 400, &st);
        std::printf("shrunk with %u runs (%u accepted): %u nodes, "
                    "%zu fault events, %u ops x %u rounds\n",
                    st.runs, st.accepts, minimal.nodes,
                    minimal.plan.events.size(),
                    minimal.workload.opsPerNode,
                    minimal.workload.rounds);
        StressResult mr = runStressCase(minimal, opt.budget);
        std::printf("minimal reproducer (replay with "
                    "--replay-file):\n%s",
                    serializeCase(minimal).c_str());
        printResult(seed, minimal, mr);
    } else {
        std::printf("reproducer (replay with --replay-file):\n%s",
                    serializeCase(minimal).c_str());
    }
    if (!opt.outFile.empty()) {
        std::ofstream out(opt.outFile);
        out << serializeCase(minimal);
        std::printf("reproducer written to %s\n",
                    opt.outFile.c_str());
    }
}

int
replaySeed(const Options &opt)
{
    StressCase c = caseFor(opt.seed, opt);
    StressResult a = runStressCase(c, opt.budget, opt.shards);
    StressResult b = runStressCase(c, opt.budget, opt.shards);
    printResult(opt.seed, c, a);
    if (a.digest != b.digest || a.steps != b.steps ||
        a.events != b.events) {
        std::printf("REPLAY DIVERGED: %016llx/%llu/%llu vs "
                    "%016llx/%llu/%llu\n",
                    (unsigned long long)a.digest,
                    (unsigned long long)a.steps,
                    (unsigned long long)a.events,
                    (unsigned long long)b.digest,
                    (unsigned long long)b.steps,
                    (unsigned long long)b.events);
        return 1;
    }
    std::printf("replay bit-identical (digest %016llx over %llu "
                "steps)\n",
                (unsigned long long)a.digest,
                (unsigned long long)a.steps);
    return 0;
}

int
replayFromFile(const Options &opt)
{
    std::ifstream in(opt.replayFile);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n",
                     opt.replayFile.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    StressCase c;
    std::string err;
    if (!parseCase(text.str(), c, err)) {
        std::fprintf(stderr, "%s: %s\n", opt.replayFile.c_str(),
                     err.c_str());
        return 2;
    }
    StressResult r = runStressCase(c, opt.budget, opt.shards);
    printResult(0, c, r);
    return r.failed() ? 1 : 0;
}

/** Baseline of a lossy case: the same case, loss events stripped. */
StressCase
stripLoss(const StressCase &c)
{
    StressCase b = c;
    b.plan.events.erase(
        std::remove_if(
            b.plan.events.begin(), b.plan.events.end(),
            [](const FaultEvent &e) { return isLossFault(e.kind); }),
        b.plan.events.end());
    return b;
}

struct LossyPair
{
    StressResult lossy;
    StressResult base;
};

/**
 * The lossy oracle: every seed runs twice — under its loss plan and
 * with the loss events stripped — and the final shared memory must
 * be bit-identical, proving the reliability layer hid every drop,
 * duplicate and corruption. Pinned to the producer-consumer pattern:
 * its finals are deterministic, so a fingerprint mismatch is loss
 * damage, never scheduling noise from racing writers.
 */
int
lossySweep(const Options &optIn)
{
    Options opt = optIn;
    if (opt.gen.patternFixed &&
        opt.gen.pattern != StressPattern::ProducerConsumer)
        std::fprintf(stderr,
                     "note: --lossy pins the producer-consumer "
                     "pattern (deterministic finals); ignoring "
                     "--pattern\n");
    opt.gen.patternFixed = true;
    opt.gen.pattern = StressPattern::ProducerConsumer;

    std::uint64_t seeds = opt.singleSeed ? 1 : opt.seeds;
    std::uint64_t base = opt.singleSeed ? opt.seed : opt.seedBase;
    std::printf("lossy sweep: %llu seeds from %llu, nodes=%u "
                "transport=%s protocol=%s, finals vs fault-free "
                "baseline\n",
                (unsigned long long)seeds,
                (unsigned long long)base, opt.gen.nodes,
                nameOf(opt.gen.transport), nameOf(opt.gen.protocol));

    std::vector<LossyPair> sweep(seeds);
    auto runPair = [&opt](std::uint64_t seed, LossyPair &p) {
        StressCase c = caseFor(seed, opt);
        p.lossy = runStressCase(c, opt.budget);
        p.base = runStressCase(stripLoss(c), opt.budget);
    };
    if (opt.jobs != 1) {
        ThreadPool pool(opt.jobs);
        for (std::uint64_t i = 0; i < seeds; ++i)
            pool.submit([i, base, &runPair, &sweep] {
                runPair(base + i, sweep[i]);
            });
        pool.wait();
    } else {
        for (std::uint64_t i = 0; i < seeds; ++i)
            runPair(base + i, sweep[i]);
    }

    std::uint64_t clean = 0, retx = 0, dups = 0, cksum = 0;
    for (std::uint64_t i = 0; i < seeds; ++i) {
        std::uint64_t seed = base + i;
        const LossyPair &p = sweep[i];
        retx += p.lossy.retransmits;
        dups += p.lossy.dupDiscards;
        cksum += p.lossy.checksumRejects;
        bool mismatch =
            p.lossy.memFingerprint != p.base.memFingerprint;
        bool bad = p.lossy.failed() || p.base.failed() || mismatch;
        if (opt.singleSeed || bad) {
            StressCase c = caseFor(seed, opt);
            printResult(seed, c, p.lossy);
            std::printf("  finals %s: lossy %016llx vs fault-free "
                        "%016llx\n",
                        mismatch ? "DIVERGED" : "match",
                        (unsigned long long)p.lossy.memFingerprint,
                        (unsigned long long)p.base.memFingerprint);
        }
        if (!bad) {
            ++clean;
            continue;
        }
        std::printf("FAILING SEED %llu (replay with --lossy "
                    "--seed %llu)\n",
                    (unsigned long long)seed,
                    (unsigned long long)seed);
        StressCase c = caseFor(seed, opt);
        if (p.base.failed()) {
            std::printf("the fault-free baseline itself failed — "
                        "not a reliability bug:\n");
            printResult(seed, stripLoss(c), p.base);
        }
        if (p.lossy.failed()) {
            handleFailure(seed, c, opt);
        } else {
            // A pure fingerprint divergence: the shrinker's verdict
            // (failed()) cannot see it, so save the case unshrunk.
            std::printf("reproducer (replay with --replay-file):"
                        "\n%s",
                        serializeCase(c).c_str());
            if (!opt.outFile.empty()) {
                std::ofstream out(opt.outFile);
                out << serializeCase(c);
                std::printf("reproducer written to %s\n",
                            opt.outFile.c_str());
            }
        }
        return 1;
    }
    std::printf("%llu/%llu lossy seeds clean: finals identical to "
                "fault-free baselines (%llu retransmits, %llu dup "
                "discards, %llu checksum rejects)\n",
                (unsigned long long)clean,
                (unsigned long long)seeds,
                (unsigned long long)retx, (unsigned long long)dups,
                (unsigned long long)cksum);
    return 0;
}

/** `seed digest` lines, as --digests-out writes them. */
using DigestList = std::map<std::uint64_t, std::uint64_t>;

bool
readDigests(const std::string &path, DigestList &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::uint64_t seed = 0;
    std::string digest;
    while (in >> seed >> digest)
        out[seed] = std::strtoull(digest.c_str(), nullptr, 16);
    return true;
}

void
writeDigests(const std::string &path, const DigestList &digests)
{
    std::ofstream out(path);
    for (const auto &[seed, digest] : digests) {
        char line[64];
        std::snprintf(line, sizeof(line), "%llu %016llx\n",
                      (unsigned long long)seed,
                      (unsigned long long)digest);
        out << line;
    }
}

/** Compare a clean sweep's digests with the golden ones. */
int
checkGolden(const DigestList &golden, const DigestList &swept)
{
    unsigned mismatches = 0, checked = 0;
    for (const auto &[seed, digest] : swept) {
        auto it = golden.find(seed);
        if (it == golden.end())
            continue;
        ++checked;
        if (it->second != digest) {
            std::fprintf(stderr,
                         "seed %llu: digest %016llx != golden "
                         "%016llx\n",
                         (unsigned long long)seed,
                         (unsigned long long)digest,
                         (unsigned long long)it->second);
            ++mismatches;
        }
    }
    std::printf("golden check: %u/%u digests match\n",
                checked - mismatches, checked);
    return mismatches || checked == 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;

    cli::OptionParser args(argc, argv);
    while (args.next()) {
        if (args.is("--seeds")) {
            opt.seeds = args.u64();
        } else if (args.is("--seed-base")) {
            opt.seedBase = args.u64();
        } else if (args.is("--seed")) {
            opt.singleSeed = true;
            opt.seed = args.u64();
        } else if (args.is("--nodes")) {
            opt.gen.nodes = args.u32();
        } else if (args.is("--pattern")) {
            opt.gen.patternFixed = true;
            opt.gen.pattern = cli::choice<StressPattern>(args);
        } else if (args.is("--bug")) {
            opt.gen.bug = cli::choice<ProtoBug>(args);
        } else if (args.is("--transport")) {
            opt.gen.transport = cli::choice<TransportKind>(args);
        } else if (args.is("--protocol")) {
            opt.gen.protocol = cli::choice<ProtocolKind>(args);
        } else if (args.is("--reliability")) {
            opt.gen.reliability = cli::choice<ReliabilityKind>(args);
        } else if (args.is("--lossy")) {
            opt.gen.lossy = true;
        } else if (args.is("--set")) {
            std::string key, value;
            if (!cli::splitKeyValue(args.value(), key, value))
                return usage(argv[0]);
            opt.overrides.emplace_back(std::move(key),
                                       std::move(value));
        } else if (args.is("--budget")) {
            opt.budget = args.u64();
        } else if (args.is("--replay")) {
            opt.replay = true;
            opt.singleSeed = true;
            opt.seed = args.u64();
        } else if (args.is("--replay-file")) {
            opt.replayFile = args.value();
        } else if (args.is("--no-shrink")) {
            opt.shrink = false;
        } else if (args.is("--jobs")) {
            opt.jobs = args.u32();
        } else if (args.is("--shards")) {
            opt.shards = args.u32();
            if (opt.shards == 0)
                opt.shards = 1;
        } else if (args.is("--expect-caught")) {
            opt.expectCaught = true;
        } else if (args.is("--out")) {
            opt.outFile = args.value();
        } else if (args.is("--golden")) {
            opt.goldenFile = args.value();
        } else if (args.is("--digests-out")) {
            opt.digestsOut = args.value();
        } else {
            return usage(argv[0]);
        }
    }

    if (opt.gen.nodes < 2) {
        std::fprintf(stderr, "--nodes must be >= 2\n");
        return 2;
    }
    if ((!opt.goldenFile.empty() || !opt.digestsOut.empty()) &&
        (opt.singleSeed || !opt.replayFile.empty() ||
         opt.gen.lossy || opt.expectCaught)) {
        // Those modes never reach the sweep's digest check, which
        // must not be skipped silently.
        std::fprintf(stderr,
                     "--golden and --digests-out apply to the plain "
                     "seed sweep only, not to --seed, --replay, "
                     "--replay-file, --lossy or --expect-caught\n");
        return 2;
    }
    DigestList golden;
    if (!opt.goldenFile.empty() &&
        !readDigests(opt.goldenFile, golden)) {
        std::fprintf(stderr, "cannot open golden file %s\n",
                     opt.goldenFile.c_str());
        return 2;
    }

    if (opt.shards > 1 &&
        opt.gen.transport == TransportKind::Multistage) {
        // Clamp here (not per run) so a seed sweep warns once.
        std::fprintf(stderr,
                     "note: the multistage fabric has no "
                     "cross-shard latency floor — its tryInject() "
                     "mutates switch state synchronously with the "
                     "sender, so conservative windows would have "
                     "zero lookahead; running with 1 shard (see "
                     "docs/ARCHITECTURE.md, \"Sharded parallel "
                     "simulation\")\n");
        opt.shards = 1;
    }
    if (opt.shards > 1 &&
        (opt.gen.lossy ||
         opt.gen.reliability == ReliabilityKind::E2e)) {
        // The wrapper has no cross-shard latency floor either; clamp
        // once here instead of warning on every run of a sweep.
        std::fprintf(stderr,
                     "note: the reliability decorator runs "
                     "sequentially; running with 1 shard\n");
        opt.shards = 1;
    }
    if (opt.shards > 1 && opt.gen.bug != ProtoBug::None)
        std::fprintf(stderr,
                     "note: sharded runs use quiescent-only "
                     "checking; a --bug mutation that only trips "
                     "per-step invariants may go uncaught\n");
    if (opt.jobs != 1)
        opt.jobs = cli::clampJobs(opt.jobs, opt.shards);

    if (!opt.replayFile.empty())
        return replayFromFile(opt);
    if (opt.replay)
        return replaySeed(opt);
    if (opt.gen.lossy)
        return lossySweep(opt);

    if (opt.singleSeed) {
        StressCase c = caseFor(opt.seed, opt);
        StressResult r = runStressCase(c, opt.budget, opt.shards);
        printResult(opt.seed, c, r);
        if (r.failed())
            handleFailure(opt.seed, c, opt);
        if (opt.expectCaught)
            return r.failed() ? 0 : 1;
        return r.failed() ? 1 : 0;
    }

    std::printf("sweeping %llu seeds from %llu: nodes=%u bug=%s "
                "transport=%s protocol=%s\n",
                (unsigned long long)opt.seeds,
                (unsigned long long)opt.seedBase, opt.gen.nodes,
                nameOf(opt.gen.bug), nameOf(opt.gen.transport),
                nameOf(opt.gen.protocol));

    // With --jobs != 1 the whole sweep runs up front on a worker
    // pool (each run is an independent single-threaded simulation);
    // results are then scanned in seed order, so the reported first
    // failure matches a sequential sweep.
    std::vector<StressResult> sweep;
    if (opt.jobs != 1) {
        sweep.resize(opt.seeds);
        ThreadPool pool(opt.jobs);
        for (std::uint64_t i = 0; i < opt.seeds; ++i) {
            pool.submit([i, &opt, &sweep] {
                StressCase c = caseFor(opt.seedBase + i, opt);
                sweep[i] = runStressCase(c, opt.budget, opt.shards);
            });
        }
        pool.wait();
    }

    std::uint64_t clean = 0;
    DigestList swept;
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        std::uint64_t seed = opt.seedBase + i;
        StressCase c = caseFor(seed, opt);
        StressResult r = sweep.empty()
                             ? runStressCase(c, opt.budget,
                                             opt.shards)
                             : std::move(sweep[i]);
        if (!r.failed()) {
            ++clean;
            swept[seed] = r.digest;
            continue;
        }
        std::printf("FAILING SEED %llu (replay with --replay "
                    "%llu)\n",
                    (unsigned long long)seed,
                    (unsigned long long)seed);
        printResult(seed, c, r);
        handleFailure(seed, c, opt);
        if (opt.expectCaught) {
            std::printf("failure found after %llu seeds\n",
                        (unsigned long long)(i + 1));
            return 0;
        }
        return 1;
    }
    std::printf("%llu/%llu seeds clean\n",
                (unsigned long long)clean,
                (unsigned long long)opt.seeds);
    if (!opt.digestsOut.empty())
        writeDigests(opt.digestsOut, swept);
    if (!opt.goldenFile.empty())
        return checkGolden(golden, swept);
    if (opt.expectCaught) {
        std::fprintf(stderr,
                     "expected a failure but the sweep was clean\n");
        return 1;
    }
    return 0;
}
