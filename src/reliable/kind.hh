/**
 * @file
 * Reliability-layer selection (docs/ARCHITECTURE.md "Reliability
 * layer") — the delivery-guarantee twin of the transport seam's
 * TransportKind: a small closed enum and its name table
 * (SystemConfig::reliability defaults through
 * envOr("CENJU_RELIABILITY")). `e2e` wraps whatever Transport backend
 * was selected in the link-level reliability decorator
 * (src/reliable/reliable_transport.hh), which makes delivery
 * exactly-once and in order even when the fault plan drops,
 * duplicates or corrupts packets on the inner fabric.
 */

#ifndef CENJU_RELIABLE_KIND_HH
#define CENJU_RELIABLE_KIND_HH

#include <array>
#include <cstdint>

#include "sim/text.hh"

namespace cenju
{

/** Delivery-guarantee flavour of the transport stack. */
enum class ReliabilityKind : std::uint8_t
{
    Off, ///< bare backend: the fabric is trusted (Cenju-4 hardware
         ///< assumption); loss faults are rejected at plan time
    E2e, ///< end-to-end decorator: sequencing, checksums, acks and
         ///< retransmit survive a lossy inner fabric
};

/** Mode names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(ReliabilityKind)
{
    return std::array{"off", "e2e"};
}

/** nameOf() under its older name (perfbench/dsm_bench.cc). */
inline const char *
reliabilityKindName(ReliabilityKind k)
{
    return nameOf(k);
}

} // namespace cenju

#endif // CENJU_RELIABLE_KIND_HH
