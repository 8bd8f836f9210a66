/**
 * @file
 * Runtime invariant engine for the queuing coherence protocol.
 *
 * A RuntimeChecker attaches to every node (DsmNode::setCheckHook)
 * and the network, and re-validates the protocol's safety invariants
 * after every atomic engine step. The catalog (docs/CHECKING.md):
 *
 *  - SWMR: at most one Modified/Exclusive copy of a block, and an
 *    M/E copy excludes any other valid copy (paper section 3.3).
 *  - Directory superset: the home's node map decodes to a superset
 *    of the true set of caching nodes (section 3.2 — imprecise maps may
 *    over-approximate, never under-approximate).
 *  - Dirty owner: a Dirty entry's map names exactly one node.
 *  - Clean value coherence: while an entry is Clean, every valid
 *    cached copy equals home memory (loads can be served from
 *    memory).
 *  - Pending bookkeeping: an entry is in a pending state iff the
 *    home holds an in-flight directory operation for it.
 *  - Reservation/queue (section 3.3 starvation freedom): a
 *    non-empty memory queue implies the head request's block is
 *    pending with its reservation bit set, and a set reservation
 *    bit implies that block is exactly the queue head's. Together
 *    these are the inductive argument that every parked request is
 *    eventually rescanned — the checker turns the liveness claim
 *    into a step-local safety predicate.
 *  - Phase order (phase-priority only): the memory queue is sorted
 *    by phase epoch, so no parked request waits behind one from a
 *    later phase.
 *
 * The same predicates back the exhaustive explorer (explorer.hh).
 */

#ifndef CENJU_CHECK_INVARIANTS_HH
#define CENJU_CHECK_INVARIANTS_HH

#include <string>
#include <vector>

#include "check/hooks.hh"
#include "sim/types.hh"

namespace cenju
{

class DsmNode;

namespace check
{

/** One detected invariant violation. */
struct Violation
{
    std::string invariant; ///< catalog id, e.g. "swmr"
    std::string detail;    ///< human-readable specifics
    Tick when = 0;         ///< simulated time of detection
};

/** Checks the invariant catalog over a set of live nodes. */
class RuntimeChecker : public CheckHook
{
  public:
    /** What to do when an invariant fails. */
    enum class OnViolation
    {
        Panic,   ///< abort the simulation (self-checking CI mode)
        Collect, ///< record and keep going (explorer/tests)
    };

    /**
     * @param nodes every node of one system, indexed by NodeId
     * @param mode violation handling
     */
    explicit RuntimeChecker(std::vector<DsmNode *> nodes,
                            OnViolation mode = OnViolation::Panic);

    void onStep(StepKind kind, NodeId at, Addr addr) override;

    /** Block-scoped invariants for @p addr plus its home's queues. */
    void checkAddr(Addr addr);

    /** Queue/reservation invariants of home @p h. */
    void checkHomeQueues(NodeId h);

    /** Full sweep over every touched directory entry. */
    void checkAll();

    /**
     * Invariants that additionally hold once the system quiesced:
     * no pending entries, no reservations, empty queues.
     */
    void checkQuiescent();

    /** Engine steps observed so far. */
    std::uint64_t steps() const { return _steps; }

    const std::vector<Violation> &violations() const
    {
        return _violations;
    }

  private:
    void report(const char *invariant, std::string detail);

    std::vector<DsmNode *> _nodes;
    OnViolation _mode;
    std::vector<Violation> _violations;
    std::uint64_t _steps = 0;
};

/**
 * Describe why a system stopped making progress: incomplete
 * requests, queue/pending/gather occupancy, and the wait-for edges
 * between them, with dead-wait detection (a parked request no
 * in-flight completion will ever rescan). Used to annotate
 * counterexample traces when the event queue drains with unfinished
 * operations.
 */
std::string diagnoseStall(const std::vector<DsmNode *> &nodes);

} // namespace check
} // namespace cenju

#endif // CENJU_CHECK_INVARIANTS_HH
