/**
 * @file
 * Coherence-policy backend selection (docs/ARCHITECTURE.md
 * "Protocol policies") — the protocol-layer twin of the transport
 * seam's TransportKind: a small closed enum and its name table.
 * ProtocolConfig::protocol defaults through envOr("CENJU_PROTOCOL")
 * so the CI matrix can retarget every system that does not pin a
 * flavour explicitly.
 */

#ifndef CENJU_POLICY_KIND_HH
#define CENJU_POLICY_KIND_HH

#include <array>
#include <cstdint>

#include "sim/text.hh"

namespace cenju
{

/** Coherence-protocol flavour (selectable backends, src/policy/). */
enum class ProtocolKind : std::uint8_t
{
    Queuing,       ///< Cenju-4: park conflicting requests in memory
    Nack,          ///< DASH-style: negative-acknowledge and retry
    PhasePriority, ///< park in phase order: requests carry a phase
                   ///< epoch and the home serves same-block
                   ///< conflicts lowest-epoch-first (arxiv
                   ///< 1305.3038-style arbitration)
};

/** Backend names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(ProtocolKind)
{
    return std::array{"queuing", "nack", "phase-priority"};
}

/** nameOf() under its older name (perfbench/dsm_bench.cc). */
inline const char *
protocolKindName(ProtocolKind k)
{
    return nameOf(k);
}

} // namespace cenju

#endif // CENJU_POLICY_KIND_HH
