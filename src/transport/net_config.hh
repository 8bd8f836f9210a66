/**
 * @file
 * Interconnect timing constants and configuration.
 *
 * Lives in transport/ (not network/) because every backend consumes
 * it: the multistage fabric charges these latencies hop by hop, and
 * the analytical backends charge traversal() of the same stage,
 * inject and eject numbers as their fixed pipe latency, so all three
 * agree bit-for-bit on uncontended paths (docs/ARCHITECTURE.md).
 * The network's latencies are the constants below; NetConfig holds
 * only the sizes a caller may vary. The stage-count rule is fabric
 * geometry shared the same way, so it lives here too.
 */

#ifndef CENJU_TRANSPORT_NET_CONFIG_HH
#define CENJU_TRANSPORT_NET_CONFIG_HH

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cenju
{

/** Switch radix (4x4 crossbars). */
constexpr unsigned switchRadix = 4;

/** Header latency through one switch stage (ns). */
constexpr Tick stageLatency = 130;

/** Controller-to-network injection overhead (ns). */
constexpr Tick injectLatency = 140;

/** Network-to-controller ejection overhead (ns). */
constexpr Tick ejectLatency = 140;

/** Per-switch overhead charged when merging a gathered reply. */
constexpr Tick gatherMergeLatency = 20;

/**
 * Software-combining flush window for the `direct` backend's
 * sender-side combining tree (ns): a node buffers same-key
 * combinable requests from its subtree this long before forwarding
 * one merged packet toward the root. Models the no-offload
 * baseline's batching knob; in-fabric backends ignore it.
 */
constexpr Tick swCombineWindow = 500;

/**
 * Uncontended latency of one network traversal across @p stages
 * stages: inject + stages x stage + eject, the Table 2 calibration
 * 280 + 130 s (sim/timing.hh).
 */
constexpr Tick
traversal(unsigned stages)
{
    return injectLatency + static_cast<Tick>(stages) * stageLatency +
           ejectLatency;
}

/**
 * Time a packet of @p bytes holds a serializing port: a 40 ns
 * header plus half a nanosecond per payload byte, rounded down.
 */
constexpr Tick
portOccupancy(unsigned bytes)
{
    return 40 + bytes / 2;
}

/** Sizes of one interconnect instance. */
struct NetConfig
{
    /** Real endpoints. */
    unsigned numNodes = 16;

    /** Capacity of each crosspoint buffer, in packets. */
    unsigned xbCapacity = 8;

    /** Per-node injection queue capacity, in packets. */
    unsigned injectQueueCapacity = 4;

    /**
     * Entries in each switch's gather table.
     *
     * Paper fidelity: the real Cenju-4 switch dedicates 3.6% of its
     * gates to a 1024-entry table (section 3.2) — enough for one
     * invalidation gather per home node at the maximum 1024-node
     * configuration. We default to 2048 because the update-protocol
     * extension (section 4.2.3, implemented here) allocates its
     * gather ids in a second bank above the homes' (master.cc), so
     * a faithful 1024-entry table would alias update gathers onto
     * invalidation gathers at full scale. Set this to 1024 to model
     * the shipped hardware without the extension. Undersizing is
     * safe either way: ids map onto slots modulo the size, and a
     * slot held by a different in-flight gather back-pressures the
     * upstream (GatherTable::canReserve) rather than corrupting the
     * merge — see tests/test_gather_exhaustion.cc.
     */
    unsigned gatherTableEntries = 2048;

    /**
     * Entries in each switch's combining-record table (ROADMAP
     * item 4). Records live only between a merge on the request path
     * and the matching decombine on the reply path — at most one
     * record per merged pair in flight through that switch — but
     * slots are claimed by ticket modulo the size, so the table must
     * cover the live *ticket* span, not the record count: a 1024-node
     * hot-spot storm has ~numNodes consecutive tickets converging on
     * the root switches at once, and a 256-entry table aliases ~15%
     * of would-be merges into skips there (measured by the
     * hotspot_1024 bench). Sized like the gather table so exhaustion
     * cannot happen at the maximum configuration. A full table is
     * never wrong — the merge is skipped and the request forwards
     * uncombined (counted in combineSkipped) — so undersizing only
     * degrades back toward the no-combining baseline.
     */
    unsigned combineTableEntries = 2048;

    /**
     * Cenju-4 stage-count rule: enough radix-4 stages to address
     * @p num_nodes, rounded up to even on larger systems —
     * 16 -> 2, 128 -> 4, 1024 -> 6 (Table 2).
     */
    static unsigned
    defaultStages(unsigned num_nodes)
    {
        if (num_nodes < 1 || num_nodes > maxNodes)
            fatal("unsupported system size %u", num_nodes);
        if (num_nodes <= switchRadix)
            return 1;
        unsigned s = 0;
        unsigned cap = 1;
        while (cap < num_nodes) {
            cap *= switchRadix;
            ++s;
        }
        if (s % 2)
            ++s;
        return s;
    }
};

} // namespace cenju

#endif // CENJU_TRANSPORT_NET_CONFIG_HH
