/**
 * @file
 * Hook interface between the protocol/network engines and the
 * checking subsystem (docs/CHECKING.md).
 *
 * The engines call a registered CheckHook after every atomic
 * protocol step — a home dispatch, a master grant, a slave serve, a
 * network delivery. The hook sees the system *between* steps, which
 * is exactly the granularity at which the safety invariants of the
 * queuing protocol (paper section 3.3) are claimed to hold. This
 * header is dependency-free so that every engine library can include
 * it without a cycle; the implementation lives in cenju_check.
 *
 * Callsites are a single predicted-not-taken branch when no hook is
 * attached, so the plumbing is always compiled in; the CENJU_CHECK
 * build option only controls whether DsmSystem attaches a checker by
 * default (self-checking mode for every test and bench).
 */

#ifndef CENJU_CHECK_HOOKS_HH
#define CENJU_CHECK_HOOKS_HH

#include "sim/types.hh"

namespace cenju::check
{

/** Which engine just completed an atomic step. */
enum class StepKind : std::uint8_t
{
    HomeDispatch,   ///< home module consumed one input message
    MasterGrant,    ///< master consumed a grant (or nack)
    MasterIssue,    ///< master issued or queued a new access
    SlaveServe,     ///< slave served one forwarded message
    NetworkDeliver, ///< network handed a packet to an endpoint
};

/** Observer attached to nodes and the network. */
class CheckHook
{
  public:
    virtual ~CheckHook() = default;

    /**
     * An engine finished an atomic step touching @p addr (0 when the
     * step has no single subject address) at node @p at.
     */
    virtual void onStep(StepKind kind, NodeId at, Addr addr) = 0;
};

} // namespace cenju::check

#endif // CENJU_CHECK_HOOKS_HH
