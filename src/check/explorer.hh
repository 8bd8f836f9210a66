/**
 * @file
 * Exhaustive state-space explorer for the coherence protocol.
 *
 * Drives the REAL Home/Master/Slave engines (not a re-model) over a
 * small configuration and enumerates every reachable quiescent
 * protocol state by breadth-first search:
 *
 *  - A *state* is the quiesced system after a sequence of operation
 *    batches (check/trace.hh). The engines hold closures in the
 *    event queue mid-flight, so states are identified by their
 *    generating trace and reconstructed by deterministic replay.
 *  - Transitions are all single operations plus (when concurrency
 *    allows) ordered multi-operation batches from distinct nodes —
 *    racing requests that exercise the queuing paths.
 *  - Dedup uses a canonical fingerprint of the quiesced state with
 *    data values renumbered by first appearance: the protocol is
 *    value-independent, so this quotient is exact and makes the
 *    reachable space finite. BFS terminates when it closes.
 *  - Safety: a Collect-mode RuntimeChecker observes every engine
 *    step of every replay (the docs/CHECKING.md catalog), and a
 *    write-serial shadow checks data-value coherence: a load must
 *    return the last serial written to its block, or one of the
 *    racing serials of its own batch.
 *  - Liveness: every batch must quiesce with all operations
 *    complete within an event budget; a drained queue with an
 *    incomplete operation (or a busted budget) is reported with a
 *    wait-for diagnosis (diagnoseStall).
 */

#ifndef CENJU_CHECK_EXPLORER_HH
#define CENJU_CHECK_EXPLORER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "check/trace.hh"

namespace cenju::check
{

/** Explorer parameters. */
struct ExplorerOptions
{
    CheckConfig cfg;

    /** Max operations issued per batch (1 = no races). Racing ops
     * come from distinct nodes, so explore() is fatal outside
     * 1..cfg.nodes. */
    unsigned concurrency = 2;

    /**
     * Phase-priority only: max epoch advances enumerated per node
     * (OpKind::Epoch transitions). Epochs only ever grow, so they
     * must be bounded for the state space to close; 1 already
     * exercises cross-phase ordering at the home.
     */
    unsigned maxPhase = 1;

    /** Max batches per trace; 0 = explore until closure. */
    unsigned maxDepth = 0;

    /** Stop after this many distinct states; 0 = unlimited. */
    std::uint64_t maxStates = 0;

    /** Livelock watchdog: event budget for one batch to quiesce. */
    std::uint64_t eventBudget = 1u << 20;

    /** Stop at the first counterexample (else collect them all). */
    bool stopAtFirstViolation = true;
};

/** A violating trace with everything needed to reproduce it. */
struct Counterexample
{
    Trace trace;
    std::vector<Violation> violations; ///< in tick order
    std::string stallDiagnosis; ///< non-empty for liveness failures
};

/** Result of one exploration. */
struct ExploreResult
{
    std::uint64_t statesVisited = 0; ///< distinct canonical states
    std::uint64_t transitions = 0;   ///< replays attempted
    std::uint64_t hookSteps = 0;     ///< engine steps checked
    std::uint64_t maxTraceDepth = 0; ///< deepest trace explored
    bool exhausted = false; ///< frontier closed (space exhausted)
    std::vector<Counterexample> counterexamples;

    bool ok() const { return counterexamples.empty(); }
};

/**
 * Run the BFS.
 * @param opt configuration and bounds
 * @param progress optional stream for periodic progress lines
 */
ExploreResult explore(const ExplorerOptions &opt,
                      std::ostream *progress = nullptr);

/** Result of replaying one trace on a fresh system. */
struct ReplayReport
{
    std::vector<Violation> violations; ///< in tick order
    std::string stallDiagnosis;
    std::uint64_t hookSteps = 0;
    bool completed = true; ///< all operations graduated

    bool ok() const
    {
        return violations.empty() && completed;
    }
};

/**
 * Replay @p t on a fresh system built from t.cfg alone (the
 * multistage fabric, no reliability layer; no CENJU_* variable
 * applies), with the exploration's checks: a Collect-mode
 * RuntimeChecker, the write-serial shadow and the event budget.
 * This is the one replayer; tools/modelcheck --replay runs it.
 * @param event_budget livelock watchdog per batch
 */
ReplayReport replayTrace(const Trace &t,
                         std::uint64_t event_budget = 1u << 20);

} // namespace cenju::check

#endif // CENJU_CHECK_EXPLORER_HH
