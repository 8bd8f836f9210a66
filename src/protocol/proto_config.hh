/**
 * @file
 * Protocol/node configuration.
 */

#ifndef CENJU_PROTOCOL_PROTO_CONFIG_HH
#define CENJU_PROTOCOL_PROTO_CONFIG_HH

#include <array>

#include "directory/node_map.hh"
#include "sim/text.hh"
#include "sim/types.hh"

namespace cenju
{

/**
 * Coherence-protocol flavour (Figure 6 comparison, docs/ARCHITECTURE.md
 * "Coherence disciplines"): the three differ only in what the home
 * does with a request that hits a pending block.
 */
enum class ProtocolKind : std::uint8_t
{
    Queuing,       ///< Cenju-4: park conflicting requests in memory
    Nack,          ///< DASH-style: negative-acknowledge and retry
    PhasePriority, ///< park in phase order: requests carry a phase
                   ///< epoch and the home serves same-block
                   ///< conflicts lowest-epoch-first (arxiv
                   ///< 1305.3038-style arbitration)
};

/** Protocol names, in enumerator order (sim/text.hh). */
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

/**
 * Deliberate protocol bugs, injectable so the checking subsystem
 * (src/check, docs/CHECKING.md) can demonstrate that it detects
 * them. None of these can fire in a default-configured system.
 */
enum class ProtoBug : std::uint8_t
{
    None,

    /** Park a conflicting request without setting the reservation
     * bit (paper section 3.3): the completing reply never scans the
     * memory queue and the parked request starves. */
    SkipReservation,

    /** Forget to register a second sharer in the directory node map
     * on a clean read: the map stops being a superset of the true
     * sharers and a later invalidation round misses a cached copy. */
    DropSharer,
};

/** Bug-knob names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(ProtoBug)
{
    return std::array{"none", "skip-reservation", "drop-sharer"};
}

/** Per-node protocol and cache parameters. */
struct ProtocolConfig
{
    /**
     * Protocol flavour (Figure 6 comparison), overridable per
     * process with CENJU_PROTOCOL=<name>.
     */
    ProtocolKind protocol =
        envOr("CENJU_PROTOCOL", ProtocolKind::Queuing);

    /** Directory node-map scheme. */
    NodeMapKind directoryScheme =
        NodeMapKind::CenjuPointerBitPattern;

    /** Use the network's multicast+gather for invalidations when
     * more than one slave is targeted (Figure 10 ablation). */
    bool useMulticast = true;

    /** Secondary cache capacity in bytes (Cenju-4: 1 MB). */
    unsigned cacheBytes = 1u << 20;

    /** Slave-module hardware input buffer, in messages. */
    unsigned slaveHwBuffer = 4;

    /** Home-module hardware output buffer, in messages. */
    unsigned homeHwOutBuffer = 4;

    /**
     * Enable the section 3.4 main-memory overflow queues. When
     * false, the slave input and home output are limited to their
     * hardware buffers and exert back-pressure into the network —
     * the deadlockable configuration (ablation A4).
     */
    bool deadlockAvoidance = true;

    /** Injected protocol bug (checker validation only). */
    ProtoBug injectBug = ProtoBug::None;

    /**
     * Attach a runtime invariant checker to every node and the
     * network when the system is built through DsmSystem (the
     * engines then self-check after every protocol step and panic
     * on the first violation). Defaults on when the library is
     * compiled with -DCENJU_CHECK (the `check` CMake preset) or the
     * CENJU_CHECK environment variable is set to a nonzero value.
     */
    bool runtimeChecks = defaultRuntimeChecks();

    /** Compile-time/environment default for runtimeChecks. */
    static bool defaultRuntimeChecks();
};

} // namespace cenju

#endif // CENJU_PROTOCOL_PROTO_CONFIG_HH
