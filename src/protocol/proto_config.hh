/**
 * @file
 * Protocol/node configuration.
 */

#ifndef CENJU_PROTOCOL_PROTO_CONFIG_HH
#define CENJU_PROTOCOL_PROTO_CONFIG_HH

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "directory/node_map.hh"
#include "policy/kind.hh"
#include "sim/text.hh"
#include "sim/timing.hh"
#include "sim/types.hh"

namespace cenju
{

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
     * Protocol flavour (Figure 6 comparison): the coherence-policy
     * backend (src/policy/, docs/ARCHITECTURE.md "Protocol
     * policies"), overridable per process with
     * CENJU_PROTOCOL=<name>.
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

    /** Secondary cache associativity (R10000 L2: 2-way). */
    unsigned cacheAssoc = 2;

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

    /** Timing constants. */
    TimingParams timing;

    /**
     * Replicated (update-protocol) private address ranges — the
     * paper's future-work extension: arrays whose per-node local
     * copies are kept coherent by multicast word updates instead of
     * invalidations, so loads are always satisfied locally.
     * Shared by every node; DsmSystem appends ranges as replicated
     * arrays are allocated.
     */
    // cenju-lint: allow(A003): configuration state built before
    // the run; shared by every node, read-only on hot paths.
    std::shared_ptr<std::vector<std::pair<Addr, Addr>>>
        replicatedRanges =
            // cenju-lint: allow(A003): cold config-time allocation.
            std::make_shared<
                std::vector<std::pair<Addr, Addr>>>();

    /** True if private address @p a lies in a replicated range. */
    bool
    isReplicated(Addr a) const
    {
        for (const auto &[lo, hi] : *replicatedRanges) {
            if (a >= lo && a < hi)
                return true;
        }
        return false;
    }

    /**
     * Combinable synchronization-word ranges (ROADMAP item 4):
     * shared words operated on only through typed atomics
     * (fetch-add/min/max/swap), never cached, so the home applies
     * them directly to memory with no directory action and the
     * network may merge concurrent requests in flight. Shared by
     * every node; DsmSystem appends ranges via shmAllocCombinable.
     */
    // cenju-lint: allow(A003): configuration state built before
    // the run; shared by every node, read-only on hot paths.
    std::shared_ptr<std::vector<std::pair<Addr, Addr>>>
        combinableRanges =
            // cenju-lint: allow(A003): cold config-time allocation.
            std::make_shared<
                std::vector<std::pair<Addr, Addr>>>();

    /** True if shared address @p a lies in a combinable range. */
    bool
    isCombinable(Addr a) const
    {
        for (const auto &[lo, hi] : *combinableRanges) {
            if (a >= lo && a < hi)
                return true;
        }
        return false;
    }
};

} // namespace cenju

#endif // CENJU_PROTOCOL_PROTO_CONFIG_HH
