/**
 * @file
 * Replayable operation traces for the checking subsystem.
 *
 * A trace is a small configuration (nodes, blocks, protocol flavour,
 * injected bug) plus a sequence of *batches*; every operation of a
 * batch is issued in order at the same simulated instant and the
 * system then runs to quiescence. Because the simulator is fully
 * deterministic (ties broken by insertion order), a trace replays
 * the exact interleaving the explorer saw — counterexamples are
 * serialized to a text form a developer can replay under a debugger
 * (tools/modelcheck --replay).
 */

#ifndef CENJU_CHECK_TRACE_HH
#define CENJU_CHECK_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "protocol/proto_config.hh"
#include "sim/types.hh"

namespace cenju::check
{

/** Operations the explorer interleaves (the processor-side API). */
enum class OpKind : std::uint8_t
{
    Load,  ///< 64-bit load of the block's first word
    Store, ///< 64-bit store of a fresh serial to the first word
    Flush, ///< evict the block as a replacement would (writeback)
    Epoch, ///< advance the node's phase epoch (phase-priority only)
};

/** Operation names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(OpKind)
{
    return std::array{"load", "store", "flush", "epoch"};
}

/** One operation of a batch. */
struct Op
{
    OpKind kind = OpKind::Load;
    NodeId node = 0;          ///< issuing node
    unsigned block = 0;       ///< logical block index (not Epoch)
    std::uint64_t value = 0;  ///< store serial (Store only)
};

/** The small configuration a trace runs on. */
struct CheckConfig
{
    unsigned nodes = 2;
    unsigned blocks = 1;
    ProtocolKind protocol = ProtocolKind::Queuing;
    ProtoBug bug = ProtoBug::None;
};

/**
 * Shared address of logical block @p block: homes rotate round-robin
 * over the nodes so a 2-block configuration exercises two homes.
 */
Addr blockAddress(const CheckConfig &cfg, unsigned block);

/** A replayable interleaving. */
struct Trace
{
    CheckConfig cfg;
    std::vector<std::vector<Op>> batches;

    /** Total operations over all batches. */
    std::size_t opCount() const;
};

/** Text form (one "batch" line per batch; see trace.cc header). */
std::string serializeTrace(const Trace &t);

/**
 * Parse the text form back.
 * @param text serialized trace
 * @param out parsed trace on success
 * @param err human-readable reason on failure
 * @retval true on success
 */
bool parseTrace(const std::string &text, Trace &out,
                std::string &err);

} // namespace cenju::check

#endif // CENJU_CHECK_TRACE_HH
