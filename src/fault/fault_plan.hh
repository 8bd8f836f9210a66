/**
 * @file
 * FaultPlan: a serializable schedule of adversarial-but-legal
 * perturbations (docs/TESTING.md).
 *
 * A plan is a list of timed windows, each applying one fault kind to
 * one target while it is open. Plans are generated from a single
 * uint64 seed, serialized to a line-per-event text form (embedded in
 * stress-case reproducers), and shrunk by dropping events — every
 * subset of a plan is itself a valid plan.
 *
 * Every *legal* kind is a delay or a transient capacity squeeze;
 * none reorders messages on a path or drops one, so the protocol's
 * invariants must hold under any plan (that is the soundness
 * contract the stress harness leans on: a violation under faults is
 * a protocol bug, never an artifact of the harness). The *loss*
 * kinds (DropMsg/DupMsg/CorruptPayload) break the fabric's delivery
 * guarantee outright and are therefore only accepted when the
 * system runs the reliability decorator (src/reliable/), which
 * restores exactly-once in-order delivery above the loss; the
 * injector rejects them on bare backends at arm() time.
 */

#ifndef CENJU_FAULT_FAULT_PLAN_HH
#define CENJU_FAULT_FAULT_PLAN_HH

#include <array>
#include <string>
#include <vector>

#include "sim/text.hh"
#include "sim/types.hh"

namespace cenju
{

class Rng;

namespace fault
{

/** The perturbation families the injector can apply. */
enum class FaultKind : std::uint8_t
{
    InjectSqueeze, ///< node's injection queue capacity reduced
    XbSqueeze,     ///< switch crosspoint buffer capacity reduced
    SwitchStall,   ///< one switch output stops serving
    DeliveryHold,  ///< deliveries to a node become ineligible
    OutputHold,    ///< a node's protocol output pump stalls
    HomeStall,     ///< a home's dispatch pipeline stalls
    GatherHold,    ///< a home's gather unit appears occupied

    // --- illegal (loss) kinds: legal only under the reliability
    // decorator (src/reliable/, docs/TESTING.md fault taxonomy).
    // Appended after the legal kinds so the random draw below stays
    // over [0, numFaultKinds) and committed golden digests hold.
    DropMsg,        ///< arriving data packets silently discarded
    DupMsg,         ///< arriving data packets delivered twice
    CorruptPayload, ///< arriving data packets' checksums damaged
};

/** Serialized kind names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(FaultKind)
{
    return std::array{"inject-squeeze", "xb-squeeze", "switch-stall",
                      "delivery-hold",  "output-hold", "home-stall",
                      "gather-hold",    "drop-msg",    "dup-msg",
                      "corrupt-payload"};
}

/** Legal kinds only — the range randomPlan() draws from. */
constexpr unsigned numFaultKinds = 7;

/** Every kind, including the loss kinds. */
constexpr unsigned numTotalFaultKinds = numNames<FaultKind>;

/** True for the loss kinds, which bare backends must reject. */
constexpr bool
isLossFault(FaultKind k)
{
    return static_cast<unsigned>(k) >= numFaultKinds;
}

/**
 * One timed fault window. Which fields are meaningful depends on
 * kind (see serializeFaultEvent); irrelevant fields stay 0. Targets
 * are interpreted modulo the system's actual size, so a plan stays
 * valid when the workload around it is shrunk.
 */
struct FaultEvent
{
    FaultKind kind = FaultKind::InjectSqueeze;
    Tick start = 0;
    Tick duration = 1;
    unsigned node = 0;   ///< target node (node-scoped kinds)
    unsigned stage = 0;  ///< target switch stage (switch kinds)
    unsigned row = 0;    ///< target switch row (switch kinds)
    unsigned port = 0;   ///< output port (SwitchStall)
    unsigned amount = 0; ///< capacity reduction (squeeze kinds)
};

/** A schedule of fault windows (any order, windows may overlap). */
struct FaultPlan
{
    std::vector<FaultEvent> events;
};

/** Size parameters random plans are drawn against. */
struct PlanShape
{
    unsigned nodes = 16;
    unsigned stages = 2;
    unsigned rows = 4;
    Tick horizon = 400000;    ///< windows start in [0, horizon)
    Tick minDuration = 2000;
    Tick maxDuration = 40000;
    unsigned minEvents = 4;
    unsigned maxEvents = 12;
};

/** Draw a random plan from @p rng against @p shape. */
FaultPlan randomPlan(Rng &rng, const PlanShape &shape);

/**
 * Draw a random *loss* plan (DropMsg/DupMsg/CorruptPayload windows
 * only) from @p rng against @p shape. Kept separate from
 * randomPlan() — and fed from its own seed stream — so that opting
 * a sweep into lossy mode never shifts the legal-fault draws that
 * committed golden digests depend on. FaultEvent::amount carries
 * the loss period: act on every amount-th arriving packet.
 */
FaultPlan randomLossPlan(Rng &rng, const PlanShape &shape);

/** True if @p plan contains any loss event. */
bool planHasLossFaults(const FaultPlan &plan);

/** One-line text form ("fault inject-squeeze at 100 dur 2000 ..."). */
std::string serializeFaultEvent(const FaultEvent &e);

/**
 * Parse a line produced by serializeFaultEvent.
 * @retval false with @p err set on malformed input
 */
bool parseFaultEvent(const std::string &line, FaultEvent &out,
                     std::string &err);

} // namespace fault
} // namespace cenju

#endif // CENJU_FAULT_FAULT_PLAN_HH
