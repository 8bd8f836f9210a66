/**
 * @file
 * Model-checker CLI for the coherence protocol (docs/CHECKING.md).
 *
 * Exhaustively explores the reachable protocol states of a small
 * configuration, reports the state count, and writes any
 * counterexample as a replayable text trace:
 *
 *   modelcheck --nodes 3 --blocks 1
 *   modelcheck --nodes 2 --blocks 1 --bug skip-reservation \
 *              --trace-out cex.trace
 *   modelcheck --replay cex.trace
 *
 * The replay path re-runs the trace through the explorer's own
 * replayer, on the machine its header describes and nothing else
 * (no CENJU_* variable applies), and prints the violations with
 * their ticks as the exploration did.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "check/explorer.hh"
#include "cli.hh"

using namespace cenju;

namespace
{

int
usage(const char *argv0)
{
    const check::CheckConfig pinned;
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --nodes N         system size, 2..4 (default 2)\n"
        "  --blocks N        shared blocks, 1..2 (default 1)\n"
        "  --concurrency N   max racing ops per step, 1..nodes "
        "(default 2)\n"
        "  --depth N         max steps per trace, 0=closure "
        "(default 0)\n"
        "  --max-states N    stop after N states, 0=unlimited\n"
        "  --protocol P      %s\n"
        "                    (default %s; CENJU_PROTOCOL does not\n"
        "                    apply, traces pin their protocol)\n"
        "  --max-phase N     phase-priority: epoch advances "
        "enumerated per node (default 1)\n"
        "  --bug B           %s (default %s)\n"
        "  --all             keep going after a counterexample\n"
        "  --trace-out FILE  write the first counterexample trace\n"
        "  --replay FILE     replay a trace; exit 1 if it "
        "violates\n",
        argv0, nameList<ProtocolKind>().c_str(), nameOf(pinned.protocol),
        nameList<ProtoBug>().c_str(), nameOf(pinned.bug));
    return 2;
}

void
printCounterexample(const check::Counterexample &cex)
{
    std::printf("counterexample (%zu batches):\n",
                cex.trace.batches.size());
    std::printf("%s", check::serializeTrace(cex.trace).c_str());
    for (const check::Violation &v : cex.violations) {
        std::printf("  violated [%s] @%llu: %s\n",
                    v.invariant.c_str(),
                    (unsigned long long)v.when,
                    v.detail.c_str());
    }
    if (!cex.stallDiagnosis.empty())
        std::printf("stall diagnosis:\n%s",
                    cex.stallDiagnosis.c_str());
}

int
replayFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    check::Trace trace;
    std::string err;
    if (!check::parseTrace(text.str(), trace, err)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     err.c_str());
        return 2;
    }

    std::printf("replaying %zu batches (%zu ops) on %u nodes, "
                "protocol=%s, bug=%s\n",
                trace.batches.size(), trace.opCount(),
                trace.cfg.nodes, nameOf(trace.cfg.protocol),
                nameOf(trace.cfg.bug));
    check::ReplayReport rep = check::replayTrace(trace);
    if (rep.ok()) {
        std::printf("replay completed with no violation\n");
        return 0;
    }
    printCounterexample(check::Counterexample{
        std::move(trace), rep.violations, rep.stallDiagnosis});
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    check::ExplorerOptions opt;
    std::string trace_out;
    std::string replay;

    cli::OptionParser args(argc, argv);
    while (args.next()) {
        if (args.is("--nodes")) {
            opt.cfg.nodes = args.u32();
        } else if (args.is("--blocks")) {
            opt.cfg.blocks = args.u32();
        } else if (args.is("--concurrency")) {
            opt.concurrency = args.u32();
        } else if (args.is("--depth")) {
            opt.maxDepth = args.u32();
        } else if (args.is("--max-states")) {
            opt.maxStates = args.u64();
        } else if (args.is("--protocol")) {
            opt.cfg.protocol = cli::choice<ProtocolKind>(args);
        } else if (args.is("--max-phase")) {
            opt.maxPhase = args.u32();
        } else if (args.is("--bug")) {
            opt.cfg.bug = cli::choice<ProtoBug>(args);
        } else if (args.is("--all")) {
            opt.stopAtFirstViolation = false;
        } else if (args.is("--trace-out")) {
            trace_out = args.value();
        } else if (args.is("--replay")) {
            replay = args.value();
        } else {
            return usage(argv[0]);
        }
    }

    if (!replay.empty())
        return replayFile(replay);

    if (opt.cfg.nodes < 2 || opt.cfg.nodes > 4 ||
        opt.cfg.blocks < 1 || opt.cfg.blocks > 2) {
        std::fprintf(stderr,
                     "exhaustive exploration is meant for 2..4 "
                     "nodes and 1..2 blocks\n");
        return 2;
    }
    if (opt.concurrency < 1 || opt.concurrency > opt.cfg.nodes) {
        std::fprintf(stderr,
                     "--concurrency %u: racing ops come from distinct "
                     "nodes, so it must be 1..%u\n",
                     opt.concurrency, opt.cfg.nodes);
        return 2;
    }

    std::printf("exploring %u nodes x %u blocks, protocol=%s, "
                "bug=%s, concurrency=%u, depth=%s\n",
                opt.cfg.nodes, opt.cfg.blocks,
                nameOf(opt.cfg.protocol), nameOf(opt.cfg.bug),
                opt.concurrency,
                opt.maxDepth
                    ? std::to_string(opt.maxDepth).c_str()
                    : "closure");

    check::ExploreResult res = check::explore(opt, &std::cout);

    std::printf("reachable states: %llu\n",
                (unsigned long long)res.statesVisited);
    std::printf("transitions replayed: %llu\n",
                (unsigned long long)res.transitions);
    std::printf("engine steps checked: %llu\n",
                (unsigned long long)res.hookSteps);
    std::printf("deepest trace: %llu batches\n",
                (unsigned long long)res.maxTraceDepth);
    std::printf("state space %s\n",
                res.exhausted ? "EXHAUSTED (closed)"
                              : "truncated by bounds");

    if (res.ok()) {
        std::printf("no invariant violations\n");
        return 0;
    }

    std::printf("%zu counterexample(s) found\n",
                res.counterexamples.size());
    for (const auto &cex : res.counterexamples)
        printCounterexample(cex);
    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        out << check::serializeTrace(
            res.counterexamples.front().trace);
        std::printf("first trace written to %s (replay with "
                    "--replay)\n",
                    trace_out.c_str());
    }
    return 1;
}
